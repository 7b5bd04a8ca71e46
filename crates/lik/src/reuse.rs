//! The likelihood evaluator, for every model the engine fits, and the
//! state it keeps of its last evaluation.
//!
//! An evaluation decomposes each distinct ω — ω values with equal bits
//! share one decomposition and one operator slot — builds every (branch ×
//! needed ω slot) transition operator, prunes every internal node of every
//! pruning unit and reduces (the phases of [`crate::par`]). The evaluator
//! keeps what its last evaluation computed: the decompositions, the
//! operators, every unit's CPVs and the result. The exact gradient
//! ([`crate::gradient`]) and the ancestral posteriors read that state, and
//! an evaluation whose point equals the kept point bit for bit is served
//! from it outright. Any other point frees the kept decompositions and
//! operators and recomputes everything, into the CPV buffers the evaluator
//! already holds.
//!
//! The model is a [`Mixture`]: branch-site model A, M1a/M2a, M0 and the
//! two-ratio model are all site classes over at most three ω matrices.
//! Pruning units are (group × pattern block), where a [`Group`] holds the
//! classes that select one background ω slot, and a unit computes a node
//! off the foreground path once and a node on it once per distinct
//! foreground slot (see [`crate::pruning`]). The codeml-style preset
//! prunes each class in a group of its own
//! ([`EngineConfig::shares_class_pruning`]).
//!
//! ## Why kept state gives a fresh evaluator's bits
//!
//! A repeat is recognized by comparing the incoming parameters
//! **bitwise** with the kept point's; no caller says what changed. Every
//! other evaluation runs the byte-same kernels on the byte-same inputs as
//! a fresh evaluator — the held CPV buffers are written before they are
//! read — and the final reduction is the same serial fixed-order
//! compensated sum. So a fresh evaluator, one with no kept point, is the
//! stateless evaluation:
//! [`site_class_log_likelihoods`](crate::site_class_log_likelihoods) is
//! one call on a fresh evaluator, and the identity test layer replays
//! optimizer-like update sequences against it.

use crate::engine::EngineConfig;
use crate::gradient::{Adjoint, MixtureGradient};
use crate::mixture::{Mixture, RateScale};
use crate::obsm;
use crate::par::{build_eigensystems, build_op, mix_and_reduce, stochastic_horizon};
use crate::problem::LikelihoodProblem;
use crate::pruning::{
    Group, LikelihoodValue, OutsideVisitor, PruneScratch, TransOp, Unit, UnitCache, N_OMEGA,
};
use slim_expm::EigenSystem;
use slim_linalg::{simd, LinalgError, Mat};
use slim_model::{BranchSiteModel, RateComponents, ScalePolicy, SiteClass};
use slim_obs::trace::{self, Value};
use std::sync::Arc;

/// What the last evaluation computed, at the point it computed it.
struct EvalState {
    /// The globals evaluated at (compared bitwise).
    mixture: Mixture,
    /// The branch lengths evaluated at (compared bitwise).
    branch_lengths: Vec<f64>,
    /// One decomposition per distinct ω.
    eigensystems: Vec<Arc<EigenSystem>>,
    /// Per-(node × ω slot) transition operators; `None` for a slot no
    /// class selects on that node's edge, and for the root.
    ops: Vec<Option<TransOp>>,
    /// The result, for the repeat shortcut.
    value: LikelihoodValue,
}

impl EvalState {
    /// Whether this state was computed at `mixture` and `branch_lengths`,
    /// bit for bit.
    fn holds(&self, mixture: &Mixture, branch_lengths: &[f64]) -> bool {
        self.mixture.same_bits(mixture)
            && self.branch_lengths.len() == branch_lengths.len()
            && self
                .branch_lengths
                .iter()
                .zip(branch_lengths)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
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

    /// The classes of each variant of group `g`, in class order.
    fn members(&self, g: usize) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.groups[g].fg().len()];
        for (c, cv) in self.class_variant.iter().enumerate() {
            if let Some((cg, v)) = *cv {
                if cg == g {
                    members[v].push(c);
                }
            }
        }
        members
    }

    /// The node blocks a pass over every unit computes at `shared`
    /// internal nodes off the foreground path and `fg` on it: one per
    /// unit at the first, one per variant at the second.
    fn node_blocks(&self, shared: usize, fg: usize) -> u64 {
        // check: allow(det-float-accum) usize variant count, not a float accumulation
        let variants: usize = self.groups.iter().map(|g| g.fg().len()).sum();
        (self.blocks.len() * (self.groups.len() * shared + variants * fg)) as u64
    }
}

/// The likelihood evaluator: keeps its last evaluation's decompositions,
/// operators and CPVs, and serves a repeat of that point from them. One
/// per fit (per hypothesis) or per loop of related evaluations; owns its
/// state, no sharing, no locking.
pub struct ReuseEvaluator<'p> {
    problem: &'p LikelihoodProblem,
    config: EngineConfig,
    /// Per node: whether a foreground branch lies below it.
    fg_path: Vec<bool>,
    /// The order the units hold the patterns in: position → pattern
    /// ([`LikelihoodProblem::canonical_pattern_order`]).
    order: Vec<usize>,
    /// Internal nodes off and on the foreground path.
    n_shared: usize,
    n_fg: usize,
    /// What the last evaluation computed; `None` before the first
    /// evaluation and after a failed one.
    state: Option<EvalState>,
    /// The pruning units' geometry; any change reallocates `units`.
    geometry: Geometry,
    /// CPV buffers, one per (group × block) unit, group-major. They
    /// outlive `state`: every evaluation that is not a repeat recomputes
    /// every node into them.
    units: Vec<UnitCache>,
    /// The problem's rate components, built on the first gradient.
    components: Option<RateComponents>,
}

impl<'p> ReuseEvaluator<'p> {
    /// A fresh evaluator for `problem` under `config`; the first
    /// [`evaluate`](ReuseEvaluator::evaluate) computes everything.
    pub fn new(problem: &'p LikelihoodProblem, config: EngineConfig) -> ReuseEvaluator<'p> {
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
            fg_path,
            order: problem.canonical_pattern_order(),
            n_shared: n_internal - n_fg,
            n_fg,
            state: None,
            geometry: Geometry::default(),
            units: Vec::new(),
            components: None,
        }
    }

    /// The problem this evaluator evaluates.
    pub(crate) fn problem(&self) -> &'p LikelihoodProblem {
        self.problem
    }

    /// Evaluate the branch-site likelihood: from the kept state if it
    /// holds this point bit for bit, else from scratch. Each phase runs
    /// inside its `lik.phase.*` span.
    ///
    /// # Errors
    /// Propagates eigensolver failures. Rejects a point whose shared rate
    /// scale is not finite and positive ([`LinalgError::InvalidScale`]),
    /// or with a branch past its decomposition's stochastic horizon, where
    /// P(t) would not be stochastic ([`LinalgError::IllConditioned`]).
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
    /// outside pass once per unit, every variant in lock step, on the
    /// calling thread; each class adds its variant's posterior times the
    /// class's NEB weight from the evaluation's own per-class output.
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
        let (n, n_pat) = (problem.pi.len(), problem.n_patterns());
        let mut visitor = Posteriors {
            weights: slim_stat::class_posteriors(&value.per_class, &value.proportions),
            members: Vec::new(),
            post: problem
                .children
                .iter()
                .map(|kids| (!kids.is_empty()).then(|| Mat::zeros(n, n_pat)))
                .collect(),
        };
        self.outside_passes(&mut visitor);
        let post = visitor.post;
        #[cfg(feature = "sanitize")]
        {
            let (_, _, slot) = mixture.distinct_omegas();
            let slots: Vec<(usize, usize)> = mixture
                .classes()
                .iter()
                .map(|c| (slot[c.background_omega], slot[c.foreground_omega]))
                .collect();
            crate::pruning::sanitize_hooks::posterior_columns(&post, &visitor.weights, &slots);
        }
        Ok(post)
    }

    /// The gradient of the branch-site log-likelihood over
    /// `[κ, ω0, ω2, p0, p1, t…]` (the fit layout) at `model` and
    /// `branch_lengths`. Evaluates first unless the kept state holds that
    /// point, as it holds the point a fit just evaluated, then runs one
    /// adjoint pass over that state (DESIGN.md §6b); the pass writes
    /// none of it, so no later evaluation moves a bit. Under H0 the ω2
    /// entry is the derivative the classes selecting ω2 would see.
    ///
    /// # Errors
    /// Propagates evaluation errors.
    ///
    /// # Panics
    /// Panics if `branch_lengths.len()` mismatches the problem.
    pub fn gradient(
        &mut self,
        model: &BranchSiteModel,
        branch_lengths: &[f64],
    ) -> Result<Vec<f64>, LinalgError> {
        let g = self.mixture_gradient(&Mixture::branch_site(model), branch_lengths)?;
        Ok(g.fit_layout(&model.proportion_jacobian()))
    }

    /// `∂lnL` of a shared-scale mixture at `branch_lengths`, in the
    /// mixture's own terms, from one adjoint pass on the calling thread.
    /// The point a fit just evaluated is read from the kept state without
    /// an evaluation, so `lik.evaluations` and the reuse counters see
    /// only a point the state does not hold.
    ///
    /// # Errors
    /// Propagates evaluation errors.
    pub(crate) fn mixture_gradient(
        &mut self,
        mixture: &Mixture,
        branch_lengths: &[f64],
    ) -> Result<MixtureGradient, LinalgError> {
        debug_assert_eq!(mixture.scale, RateScale::Shared, "M0's per-class scale");
        let kept = self
            .state
            .as_ref()
            .filter(|s| s.holds(mixture, branch_lengths));
        let value = match kept {
            Some(s) => s.value.clone(),
            None => self.evaluate_mixture(mixture, branch_lengths)?,
        };
        let _span = obsm::PHASE_GRADIENT.span();
        let problem = self.problem;
        let components = self
            .components
            .take()
            .unwrap_or_else(|| RateComponents::new(&problem.code, &problem.pi));
        let scale = match mixture.scale_policy(&problem.code, &problem.pi) {
            ScalePolicy::External(scale) => scale,
            _ => 1.0,
        };
        let (_, _, slot) = mixture.distinct_omegas();
        let gradient = simd::with_forced(self.config.simd, || {
            // check: allow(rob-unwrap) a successful evaluation stores its state
            let eigensystems = &self.state.as_ref().expect("evaluation state").eigensystems;
            let mut adjoint = Adjoint::new(
                problem,
                mixture,
                eigensystems,
                branch_lengths,
                &self.order,
                &value,
            );
            self.outside_passes(&mut adjoint);
            adjoint.finish(&value, &components, scale, &slot)
        });
        self.components = Some(components);
        #[cfg(feature = "sanitize")]
        for (k, &g) in [gradient.kappa]
            .iter()
            .chain(&gradient.omegas)
            .chain(&gradient.proportions)
            .chain(&gradient.branch_lengths)
            .enumerate()
        {
            slim_linalg::sanitize::check_finite("gradient entry", g, || {
                format!(
                    "adjoint pass, entry {k} of [κ, ω…, π…, t…] at lnL {}",
                    value.lnl
                )
            });
        }
        Ok(gradient)
    }

    /// Run the outside pass over every kept unit, group-major, on the
    /// calling thread, announcing each group's classes to `visitor` first.
    fn outside_passes(&self, visitor: &mut impl OutsideVisitor) {
        // check: allow(rob-unwrap) callers evaluate first, and a successful evaluation stores its state
        let ops = &self.state.as_ref().expect("evaluation state").ops;
        let geometry = &self.geometry;
        let n_blocks = geometry.blocks.len();
        simd::with_forced(self.config.simd, || {
            for (g, &group) in geometry.groups.iter().enumerate() {
                visitor.begin_group(geometry.members(g));
                for (b, &(lo, _)) in geometry.blocks.iter().enumerate() {
                    let unit = Unit {
                        problem: self.problem,
                        config: &self.config,
                        ops,
                        fg_path: &self.fg_path,
                        group,
                        order: &self.order,
                        lo,
                    };
                    unit.outside_pass(&self.units[g * n_blocks + b], visitor);
                }
            }
        });
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

        // --- A repeat of the kept point: serve its result outright. ---
        if let Some(s) = self
            .state
            .as_ref()
            .filter(|s| s.holds(mixture, branch_lengths))
        {
            obs.reuse_units_reused
                .add(self.geometry.node_blocks(self.n_shared, self.n_fg));
            trace::instant_with("lik.reuse.hit", "lik", || {
                vec![("units", Value::U64(self.geometry.n_units() as u64))]
            });
            return Ok(s.value.clone());
        }
        // Any other point recomputes everything. The kept decompositions
        // and operators are freed first, so old and new are never held
        // together.
        self.state = None;

        // --- Phase 1: eigendecompositions, one per distinct ω. ---
        let phase_span = obsm::PHASE_EIGEN.span();
        let (distinct, n_distinct, slot) = mixture.distinct_omegas();
        let policy = mixture.scale_policy(&problem.code, &problem.pi);
        // A line-search step far out (κ and ω2 near e^510, or proportions
        // of 0/0) can overflow the shared scale; no rate matrix is defined
        // there, so the point is rejected.
        if let ScalePolicy::External(scale) = policy {
            if !(scale.is_finite() && scale > 0.0) {
                return Err(LinalgError::InvalidScale {
                    op: "shared rate scale",
                });
            }
        }
        let eigensystems = build_eigensystems(
            problem,
            &config,
            mixture.kappa,
            &distinct[..n_distinct],
            policy,
        )?;
        let horizons: Vec<f64> = eigensystems.iter().map(|e| stochastic_horizon(e)).collect();
        drop(phase_span);

        // --- Phase 2: every (branch, needed ω slot) transition operator. ---
        let phase_span = obsm::PHASE_EXPM.span();
        // needed[is_foreground][slot]: the slots the classes select on
        // background and on foreground branches.
        let mut needed = [[false; N_OMEGA]; 2];
        for c in mixture.classes() {
            needed[0][slot[c.background_omega]] = true;
            needed[1][slot[c.foreground_omega]] = true;
        }
        // (operator slot, ω slot, branch length) of every operator.
        let mut work: Vec<(usize, usize, f64)> = Vec::new();
        for node in 0..n_nodes {
            let Some(bi) = problem.branch_index[node] else {
                continue;
            };
            let t = branch_lengths[bi];
            for w in 0..n_distinct {
                if !needed[usize::from(problem.is_foreground[node])][w] {
                    continue;
                }
                // Past its horizon the decomposition cannot give a
                // stochastic P(t), so the point is rejected instead.
                if t > horizons[w] {
                    return Err(LinalgError::IllConditioned {
                        op: "P(t) reconstruction",
                    });
                }
                work.push((node * N_OMEGA + w, w, t));
            }
        }
        let mut built: Vec<Option<TransOp>> = (0..work.len()).map(|_| None).collect();
        let expm_threads = threads.min(work.len()).max(1);
        if expm_threads >= 2 {
            let per = work.len().div_ceil(expm_threads);
            let eigensystems = &eigensystems;
            let config_ref = &config;
            crossbeam::thread::scope(|scope| {
                for (chunk, out) in work.chunks(per).zip(built.chunks_mut(per)) {
                    scope.spawn(move |_| {
                        simd::with_forced(simd_mode, || {
                            for (&(_, w, t), op) in chunk.iter().zip(out.iter_mut()) {
                                *op = Some(build_op(&eigensystems[w], config_ref, t));
                            }
                        });
                    });
                }
            })
            // check: allow(rob-unwrap) scope join fails only if a worker panicked; propagate the abort
            .expect("expm scope");
        } else {
            for (&(_, w, t), op) in work.iter().zip(built.iter_mut()) {
                *op = Some(build_op(&eigensystems[w], &config, t));
            }
        }
        let mut ops: Vec<Option<TransOp>> = (0..n_nodes * N_OMEGA).map(|_| None).collect();
        for (&(s, _, _), op) in work.iter().zip(built) {
            ops[s] = op;
        }
        drop(phase_span);

        // --- Unit geometry: only a new one needs new buffers. ---
        let classes = mixture.classes();
        let geometry = Geometry::new(
            classes,
            &slot,
            config.shares_class_pruning(),
            n_pat,
            config.pattern_block.max(1),
        );
        if self.geometry != geometry {
            self.units = (0..geometry.n_units()).map(|_| UnitCache::new()).collect();
            self.geometry = geometry;
        }
        let geometry = &self.geometry;
        let n_units = geometry.n_units();
        obs.units.add(n_units as u64);
        obs.reuse_units_recomputed
            .add(geometry.node_blocks(self.n_shared, self.n_fg));

        // --- Phase 3: pruning, every internal node of every unit. ---
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
                    order: &self.order,
                    lo,
                };
                runits.push(RUnit { unit, bw, cache });
            }
        }
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
                            prune_worker(rx.iter());
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
            prune_worker(runits.into_iter());
        }
        // Each class reads its variant's output, block by block, back into
        // the problem's pattern order; a class with proportion 0 was not
        // pruned.
        let mut per_class = vec![vec![f64::NEG_INFINITY; n_pat]; classes.len()];
        for (out, cv) in per_class.iter_mut().zip(&geometry.class_variant) {
            let Some((g, v)) = *cv else { continue };
            for (b, &(lo, bw)) in geometry.blocks.iter().enumerate() {
                let unit_out = self.units[g * n_blocks + b].variant_out(v);
                for (&p, &value) in self.order[lo..lo + bw].iter().zip(unit_out) {
                    out[p] = value;
                }
            }
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

/// The outside-pass visitor behind
/// [`node_posteriors`](ReuseEvaluator::node_posteriors).
struct Posteriors {
    /// `[pattern][class]` NEB weights.
    weights: Vec<Vec<f64>>,
    /// The classes of each variant of the group being visited.
    members: Vec<Vec<usize>>,
    /// Per node: the posterior block being summed.
    post: Vec<Option<Mat>>,
}

impl OutsideVisitor for Posteriors {
    fn begin_group(&mut self, members: Vec<Vec<usize>>) {
        self.members = members;
    }

    /// Each class of each variant adds its weight times the variant's
    /// normalized `inside ⊙ outside` column.
    fn node(&mut self, unit: &Unit<'_>, node: usize, inside: &[&Mat], outside: &[Mat]) {
        // check: allow(rob-unwrap) node_posteriors gives every internal node a posterior block
        let dest = self.post[node].as_mut().expect("posterior block");
        let n = inside[0].rows();
        for ((inside, outside), classes) in inside.iter().zip(outside).zip(&self.members) {
            for q in 0..inside.cols() {
                let mut total = 0.0;
                for i in 0..n {
                    // check: allow(det-float-accum) per-column sum over the states in fixed order
                    total += inside[(i, q)] * outside[(i, q)];
                }
                // A class that cannot produce the pattern has weight 0.
                if total <= 0.0 {
                    continue;
                }
                let p = unit.pattern(q);
                for &c in classes {
                    let w = self.weights[p][c];
                    for i in 0..n {
                        // check: allow(det-float-accum) one term per site class, added in unit order
                        dest[(i, p)] += w * (inside[(i, q)] * outside[(i, q)] / total);
                    }
                }
            }
        }
    }
}

/// One pruning unit's work order: its inputs, block width and buffers.
struct RUnit<'a> {
    unit: Unit<'a>,
    bw: usize,
    cache: &'a mut UnitCache,
}

/// The pruning worker loop, shared by the threaded and serial paths: one
/// scratch workspace, one `lik.block` span per unit, the whole loop inside
/// a `lik.pruning.worker_busy` span.
fn prune_worker<'a>(work: impl Iterator<Item = RUnit<'a>>) {
    let _busy = obsm::WORKER_BUSY.span();
    let mut ws = PruneScratch::new();
    for RUnit { unit, bw, cache } in work {
        let mut block_span = obsm::BLOCK.span();
        block_span.arg_u64("bg", unit.group.bg as u64);
        block_span.arg_u64("variants", unit.group.fg().len() as u64);
        block_span.arg_u64("lo", unit.lo as u64);
        unit.prune_block(bw, cache, &mut ws);
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
    /// the probes again — each step checked bit-for-bit against a
    /// stateless evaluation (a fresh evaluator).
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
        // Small blocks force several units per group.
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
        // After a probe of the foreground branch and a probe off the
        // foreground path (the branch above an internal node whose parent
        // has no foreground branch below it), each with its restore, and
        // on an exact repeat (served from the kept state), the outside
        // pass reads the kept CPVs and gives a fresh evaluator's bits.
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
        let n_br = problem.n_branches();
        let bl = vec![0.1; n_br];
        for (hypothesis, es, ops) in [
            (Hypothesis::H0, 2, 2 * n_br),
            (Hypothesis::H1, 3, 2 * n_br + 1),
        ] {
            let mut ev = ReuseEvaluator::new(&problem, EngineConfig::slim());
            ev.evaluate(&BranchSiteModel::default_start(hypothesis), &bl)
                .unwrap();
            let state = ev.state.as_ref().unwrap();
            assert_eq!(state.eigensystems.len(), es, "{hypothesis:?}");
            let built = state.ops.iter().filter(|op| op.is_some()).count();
            assert_eq!(built, ops, "{hypothesis:?}");
        }
    }
}
