//! The exact gradient of the log-likelihood, from one adjoint pass over
//! the state the evaluator keeps for the point it last evaluated.
//!
//! ## Branch lengths
//!
//! Pattern `p`'s likelihood under one variant is, at every edge `b`,
//! `L = uᵀ P(t_b) in`: `u` is the block above the edge (the parent's
//! outside block times the siblings' messages) and `in` the child's CPV.
//! So `∂ ln L / ∂P_ij = u_i in_j / Z` with `Z = uᵀ (P in)`, the edge's
//! share of the likelihood in the same column factors, which therefore
//! cancel. Mixed over classes, pattern `p` adds `w_p r_pc u_i in_j / Z`,
//! with `r_pc` the class posterior and `w_p` the pattern weight (Sumner &
//! Charleston's edge contraction, with the adjoint in place of `P`).
//!
//! `P(t) = Π^{-1/2} e^{At} Π^{1/2}` with `A = X Λ Xᵀ`, so in the
//! eigenbasis the adjoint is `Ĥ = Xᵀ Π^{-1/2} G Π^{1/2} X`, and
//! `∂lnL/∂t_b = Σ_i Ĥ_ii λ_i e^{λ_i t_b}` (`dP/dt = QP`). A unit forms
//! `Ĥ` straight from each chunk's columns, as
//! `(Xᵀ Π^{-1/2} U)(Xᵀ Π^{1/2} In)ᵀ`; a wide unit (more than
//! [`WIDE_UNIT`] patterns) sums `G` over its chunks first and maps each
//! edge's `G` into the eigenbasis once per group.
//!
//! ## κ, ω and the proportions
//!
//! The same `Ĥ`, times the Daleckii–Krein divided differences of the
//! edge ([`EigenSystem::divided_differences`]), is summed per ω index in
//! its slot's eigenbasis; back in `A`'s coordinates that sum is
//! `∂lnL/∂A_k`, and κ and ω_k are inner products of it with the fixed
//! rate components ([`RateComponents`]). Every matrix shares the scale
//! μ̄ = Σ_c π_c (syn + ω_bg(c) nonsyn); scaling μ̄ scales every branch,
//! so `∂lnL/∂μ̄ = −Σ_b t_b ∂lnL/∂t_b / μ̄`, which reaches κ, every
//! background ω and every proportion. A proportion also mixes the
//! classes directly: `∂lnL/∂π_c = Σ_p w_p L_c(p) / L(p)`.
//!
//! Classes with equal slots share one variant and so one adjoint; a
//! class's share of it is its proportion over the variant's, so an ω that
//! shares a slot with another (H0's ω2 = 1) gets only its own classes'.
//! The pass reads the evaluator's state and writes none of it. It runs on
//! the calling thread in fixed unit, chunk, node and edge order through
//! dispatched kernels only, so its bits are the same for every thread
//! count, SIMD mode and kept or cleared state. Its sums over patterns run
//! in the evaluator's pattern order, which the patterns alone decide
//! ([`LikelihoodProblem::canonical_pattern_order`]), so the order of the
//! alignment's columns and records moves none of them.

use crate::mixture::Mixture;
use crate::problem::LikelihoodProblem;
use crate::pruning::{LikelihoodValue, OutsideVisitor, Unit, N_OMEGA, OUTSIDE_CHUNK};
use slim_expm::EigenSystem;
use slim_linalg::{gemm, Mat, Transpose};
use slim_model::RateComponents;
use std::sync::Arc;

/// Units wider than this many patterns sum each edge's adjoint in `P`
/// coordinates over their chunks and map it into the eigenbasis once per
/// group: per pattern one `n²` product instead of three, for an `n × n`
/// sum per (edge, slot, ω index) kept through the group and two `n³`
/// products per sum. Measured on perfbench (EXPERIMENTS.md), the sums
/// make tests on 4 × 1500-codon genes (256-pattern units) 1.5× faster
/// than mapping every chunk; on 5 × 80-codon genes, two fits at once,
/// they would make tests 1.2× faster but raise peak memory by 0.7 MB
/// (8 %). So units no wider than this map each chunk straight and keep
/// no sum; any width from 80 to 255 splits those shapes the same way.
const WIDE_UNIT: usize = 4 * OUTSIDE_CHUNK;

/// `∂lnL` at one point, in the mixture's own terms.
#[derive(Debug, Clone)]
pub(crate) struct MixtureGradient {
    pub(crate) kappa: f64,
    /// Per ω index, in the order of [`Mixture::omegas`].
    pub(crate) omegas: [f64; N_OMEGA],
    /// Per class, in the mixture's class order.
    pub(crate) proportions: Vec<f64>,
    /// Per branch, in the problem's branch order.
    pub(crate) branch_lengths: Vec<f64>,
}

impl MixtureGradient {
    /// The gradient over the fit layout `[κ, ω0, ω2, p0, p1, t…]` of a
    /// mixture over `[ω0, 1, ω2]` (an ω2 the mixture lacks reads 0), where
    /// `jacobian[c]` holds `∂π_c/∂(p0, p1)`.
    pub(crate) fn fit_layout(&self, jacobian: &[[f64; 2]]) -> Vec<f64> {
        let dp = |k: usize| {
            self.proportions
                .iter()
                .zip(jacobian)
                .map(|(g, row)| g * row[k])
                // check: allow(det-float-accum) fixed class-order sum of ≤ 4 terms
                .sum()
        };
        let mut out = vec![self.kappa, self.omegas[0], self.omegas[2], dp(0), dp(1)];
        out.extend_from_slice(&self.branch_lengths);
        out
    }
}

/// The adjoint pass: a visitor of [`Unit::outside_pass`] that sums each
/// edge's adjoint into the branch-length derivatives and, per ω index,
/// into an eigenbasis sum.
pub(crate) struct Adjoint<'a> {
    problem: &'a LikelihoodProblem,
    mixture: &'a Mixture,
    eigensystems: &'a [Arc<EigenSystem>],
    branch_lengths: &'a [f64],
    /// The evaluator's pattern order, in which every sum over patterns
    /// runs.
    order: &'a [usize],
    /// `[pattern][class]` posteriors.
    posteriors: Vec<Vec<f64>>,
    /// Per slot: `Xᵀ`, and `Σ_i π_i^{1/2} X[i, :]` (a missing codon's row).
    xt: Vec<Mat>,
    missing_row: Vec<Vec<f64>>,
    /// The classes of each variant of the unit being visited.
    members: Vec<Vec<usize>>,
    /// Per ω index: `Σ_b F_b ∘ Ĥ_b` in its slot's eigenbasis.
    sums: Vec<Mat>,
    /// `∂lnL/∂t_b`.
    dt: Vec<f64>,
    /// Whether the unit being visited is wider than [`WIDE_UNIT`].
    wide: bool,
    /// A wide group's `G` per (branch, slot, ω index), not yet mapped.
    pending: Vec<(usize, usize, usize, Mat)>,
    /// One edge term's divided differences and adjoint.
    f: Mat,
    h: Mat,
}

impl<'a> Adjoint<'a> {
    /// An empty pass at the point `value` was evaluated at.
    pub(crate) fn new(
        problem: &'a LikelihoodProblem,
        mixture: &'a Mixture,
        eigensystems: &'a [Arc<EigenSystem>],
        branch_lengths: &'a [f64],
        order: &'a [usize],
        value: &LikelihoodValue,
    ) -> Adjoint<'a> {
        let n = problem.pi.len();
        let xt = eigensystems
            .iter()
            .map(|es| es.eigen.vectors.transpose())
            .collect();
        let missing_row = eigensystems
            .iter()
            .map(|es| {
                let mut row = vec![0.0; n];
                for (i, &r) in es.sqrt_pi.iter().enumerate() {
                    slim_linalg::vecops::axpy(r, es.eigen.vectors.row(i), &mut row);
                }
                row
            })
            .collect();
        Adjoint {
            problem,
            mixture,
            eigensystems,
            branch_lengths,
            order,
            posteriors: slim_stat::class_posteriors(&value.per_class, &value.proportions),
            xt,
            missing_row,
            members: Vec::new(),
            sums: (0..mixture.omegas().len())
                .map(|_| Mat::zeros(n, n))
                .collect(),
            dt: vec![0.0; branch_lengths.len()],
            wide: false,
            pending: Vec::new(),
            f: Mat::zeros(n, n),
            h: Mat::zeros(n, n),
        }
    }

    /// Map every pending `G` into the eigenbasis of its slot, in the
    /// order the edges first produced them.
    fn flush(&mut self) {
        let n = self.problem.pi.len();
        for (b, s, k, mut g) in std::mem::take(&mut self.pending) {
            let es = &self.eigensystems[s];
            for i in 0..n {
                let r = es.inv_sqrt_pi[i];
                for (v, &c) in g.row_mut(i).iter_mut().zip(&es.sqrt_pi) {
                    *v *= r * c;
                }
            }
            let xg = slim_linalg::gemm::matmul(&self.xt[s], Transpose::No, &g, Transpose::No);
            gemm(
                1.0,
                &xg,
                Transpose::No,
                &es.eigen.vectors,
                Transpose::No,
                0.0,
                &mut self.h,
            );
            self.add_edge(b, s, k, false);
        }
    }

    /// Add the adjoint `Ĥ` in `self.h` — branch `b`'s, in slot `s`'s
    /// eigenbasis, for ω index `k` — to `∂lnL/∂t_b` and to index `k`'s
    /// eigenbasis sum. `have_f` says `self.f` already holds `b`'s divided
    /// differences in slot `s`.
    fn add_edge(&mut self, b: usize, s: usize, k: usize, have_f: bool) {
        let es = &self.eigensystems[s];
        let t = self.branch_lengths[b];
        for (i, &l) in es.eigen.values.iter().enumerate() {
            // check: allow(det-float-accum) fixed-order sum over edge terms and states
            self.dt[b] += self.h[(i, i)] * l * (l * t).exp();
        }
        if !have_f {
            es.divided_differences(t, &mut self.f);
        }
        for ((o, &fv), &hv) in self.sums[k]
            .as_mut_slice()
            .iter_mut()
            .zip(self.f.as_slice())
            .zip(self.h.as_slice())
        {
            // check: allow(det-float-accum) fixed-order sum over edge terms
            *o += fv * hv;
        }
    }

    /// The gradient, once every unit has been visited. `components` are
    /// the problem's rate components, `scale` the shared scale μ̄.
    pub(crate) fn finish(
        mut self,
        value: &LikelihoodValue,
        components: &RateComponents,
        scale: f64,
        slot: &[usize; N_OMEGA],
    ) -> MixtureGradient {
        self.flush();
        let (mixture, problem) = (self.mixture, self.problem);
        let (kappa, omegas, classes) = (mixture.kappa, mixture.omegas(), mixture.classes());
        // Through the shared scale: scaling μ̄ scales every branch.
        let mut tdt = 0.0;
        for (t, d) in self.branch_lengths.iter().zip(&self.dt) {
            // check: allow(det-float-accum) fixed branch-order sum
            tdt += t * d;
        }
        let dscale = -tdt / scale;
        let fluxes = components.fluxes(kappa);
        let mut g = MixtureGradient {
            kappa: 0.0,
            omegas: [0.0; N_OMEGA],
            proportions: vec![0.0; classes.len()],
            branch_lengths: self.dt,
        };
        for (k, sum) in self.sums.iter().enumerate() {
            let through = components.contract(
                &self.eigensystems[slot[k]].from_eigenbasis(sum),
                kappa,
                omegas[k],
            );
            // check: allow(det-float-accum) fixed ω-index-order sum of ≤ 3 terms
            g.kappa += through.kappa / scale;
            g.omegas[k] = through.omega / scale;
        }
        for (c, class) in classes.iter().enumerate() {
            let w = omegas[class.background_omega];
            // check: allow(det-float-accum) fixed class-order sum of ≤ 4 terms
            g.kappa += dscale * class.proportion * (fluxes.dsyn + w * fluxes.dnonsyn);
            // check: allow(det-float-accum) fixed class-order sum of ≤ 4 terms
            g.omegas[class.background_omega] += dscale * class.proportion * fluxes.nonsyn;
            // Mixing: Σ_p w_p L_c(p) / L(p); a class that was not pruned
            // (proportion 0) reads −∞ and adds nothing.
            let mut mix = 0.0;
            for &p in self.order {
                let (lc, l) = (value.per_class[c][p], value.per_pattern[p]);
                if l.is_finite() {
                    // check: allow(det-float-accum) fixed sum in the evaluator's pattern order
                    mix += problem.patterns.weight(p) * (lc - l).exp();
                }
            }
            g.proportions[c] = mix + dscale * (fluxes.syn + w * fluxes.nonsyn);
        }
        g
    }

    /// One term of an edge: the variants `term` of `unit`, which read the
    /// same operator slot `s` and the same inside of `child`, over the
    /// edge's branch `b`. `scale[v][q]` is `w_p / Z` of variant `v`.
    #[allow(clippy::too_many_arguments)]
    fn term(
        &mut self,
        unit: &Unit<'_>,
        child: usize,
        b: usize,
        s: usize,
        term: &[usize],
        above: &[Mat],
        scale: &[Vec<f64>],
        cpvs: &[Option<Mat>],
    ) {
        let problem = self.problem;
        let (n, bw) = (problem.pi.len(), above[0].cols());
        let inside = problem.leaf_taxon[child].is_none().then(|| {
            cpvs[unit.slot(child, term[0])]
                .as_ref()
                // check: allow(rob-unwrap) pruning kept every internal node's CPV
                .expect("kept CPV")
        });
        let fg = problem.is_foreground[child];
        let (mut u, mut weights) = (Mat::zeros_padded(n, bw), vec![0.0; bw]);
        let mut bt: Option<Mat> = None;
        let mut have_f = false;
        for k in 0..self.sums.len() {
            // Σ over the term's classes with ω index k on this edge of
            // above · diag(w_p r_pc / Z).
            u.fill_zero();
            let mut any = false;
            for &v in term {
                for &c in &self.members[v] {
                    let class = self.mixture.classes()[c];
                    let index = if fg {
                        class.foreground_omega
                    } else {
                        class.background_omega
                    };
                    if index != k {
                        continue;
                    }
                    any = true;
                    for (q, w) in weights.iter_mut().enumerate() {
                        *w = scale[v][q] * self.posteriors[unit.pattern(q)][c];
                    }
                    for i in 0..n {
                        for ((o, &av), &w) in
                            u.row_mut(i).iter_mut().zip(above[v].row(i)).zip(&weights)
                        {
                            // check: allow(det-float-accum) one term per class, in fixed variant and class order
                            *o += av * w;
                        }
                    }
                }
            }
            if !any {
                continue;
            }
            if self.wide {
                self.accumulate(unit, child, b, s, k, &u, inside);
                continue;
            }
            // Ĥ = (Xᵀ Π^{-1/2} U)(Xᵀ Π^{1/2} In)ᵀ over this chunk.
            let es = &self.eigensystems[s];
            let bt = bt.get_or_insert_with(|| self.eigen_inside(unit, child, s, bw, inside));
            for i in 0..n {
                slim_linalg::vecops::scal(es.inv_sqrt_pi[i], u.row_mut(i));
            }
            let a = slim_linalg::gemm::matmul(&self.xt[s], Transpose::No, &u, Transpose::No);
            gemm(1.0, &a, Transpose::No, bt, Transpose::No, 0.0, &mut self.h);
            self.add_edge(b, s, k, have_f);
            have_f = true;
        }
    }

    /// `(Xᵀ Π^{1/2} In)ᵀ` of `child` in slot `s`, one row per pattern of
    /// the chunk: a leaf's codon picks a row of X.
    fn eigen_inside(
        &self,
        unit: &Unit<'_>,
        child: usize,
        s: usize,
        bw: usize,
        inside: Option<&Mat>,
    ) -> Mat {
        let problem = self.problem;
        let es = &self.eigensystems[s];
        let x = &es.eigen.vectors;
        let mut bt = Mat::zeros_padded(bw, problem.pi.len());
        match (inside, problem.leaf_taxon[child]) {
            (Some(inside), _) => {
                let mut scaled = inside.clone();
                for (i, &r) in es.sqrt_pi.iter().enumerate() {
                    slim_linalg::vecops::scal(r, scaled.row_mut(i));
                }
                gemm(1.0, &scaled, Transpose::Yes, x, Transpose::No, 0.0, &mut bt);
            }
            (None, Some(taxon)) => {
                for q in 0..bw {
                    let codon = problem.patterns.pattern(unit.pattern(q))[taxon];
                    if codon == slim_bio::patterns::MISSING {
                        bt.row_mut(q).copy_from_slice(&self.missing_row[s]);
                    } else {
                        let r = es.sqrt_pi[codon];
                        for (o, &xv) in bt.row_mut(q).iter_mut().zip(x.row(codon)) {
                            *o = r * xv;
                        }
                    }
                }
            }
            (None, None) => {}
        }
        bt
    }

    /// A chunk of a wide unit: add `U Inᵀ` to the pending `G` of
    /// (`b`, `s`, `k`). A leaf's `In` is an indicator, so its codon's
    /// column takes `U`'s column (every column, for a missing codon).
    #[allow(clippy::too_many_arguments)]
    fn accumulate(
        &mut self,
        unit: &Unit<'_>,
        child: usize,
        b: usize,
        s: usize,
        k: usize,
        u: &Mat,
        inside: Option<&Mat>,
    ) {
        let problem = self.problem;
        let n = problem.pi.len();
        let at = match self
            .pending
            .iter()
            .position(|&(pb, ps, pk, _)| (pb, ps, pk) == (b, s, k))
        {
            Some(at) => at,
            None => {
                self.pending.push((b, s, k, Mat::zeros(n, n)));
                self.pending.len() - 1
            }
        };
        let g = &mut self.pending[at].3;
        match (inside, problem.leaf_taxon[child]) {
            (Some(inside), _) => gemm(1.0, u, Transpose::No, inside, Transpose::Yes, 1.0, g),
            (None, Some(taxon)) => {
                for q in 0..u.cols() {
                    let codon = problem.patterns.pattern(unit.pattern(q))[taxon];
                    for i in 0..n {
                        let uv = u[(i, q)];
                        if codon == slim_bio::patterns::MISSING {
                            for v in g.row_mut(i) {
                                // check: allow(det-float-accum) fixed chunk and pattern order
                                *v += uv;
                            }
                        } else {
                            // check: allow(det-float-accum) fixed chunk and pattern order
                            g[(i, codon)] += uv;
                        }
                    }
                }
            }
            (None, None) => {}
        }
    }
}

impl OutsideVisitor for Adjoint<'_> {
    /// Maps the previous group's pending sums first.
    fn begin_group(&mut self, members: Vec<Vec<usize>>) {
        self.flush();
        self.members = members;
    }

    fn begin_unit(&mut self, bw: usize) {
        self.wide = bw > WIDE_UNIT;
    }

    fn edge(
        &mut self,
        unit: &Unit<'_>,
        child: usize,
        above: &[Mat],
        message: &[&Mat],
        cpvs: &[Option<Mat>],
    ) {
        let problem = self.problem;
        let Some(b) = problem.branch_index[child] else {
            return;
        };
        let (n, bw) = (problem.pi.len(), above[0].cols());
        // w_p / Z per variant and column; 0 where the edge likelihood
        // vanishes (a class that cannot produce the pattern).
        let scale: Vec<Vec<f64>> = above
            .iter()
            .zip(message)
            .map(|(u, m)| {
                (0..bw)
                    .map(|q| {
                        let mut z = 0.0;
                        for i in 0..n {
                            // check: allow(det-float-accum) per-column sum over the states in fixed order
                            z += u[(i, q)] * m[(i, q)];
                        }
                        if z > 0.0 && z.is_finite() {
                            problem.patterns.weight(unit.pattern(q)) / z
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        // Variants that read one slot — and, below the foreground path,
        // one inside — form one term.
        let fg = problem.is_foreground[child];
        let slot_of = |v: usize| {
            if fg {
                unit.group.fg()[v]
            } else {
                unit.group.bg
            }
        };
        let shared_inside = problem.children[child].is_empty() || !unit.fg_path[child];
        let mut done = vec![false; above.len()];
        for v0 in 0..above.len() {
            if done[v0] {
                continue;
            }
            let term: Vec<usize> = (v0..above.len())
                .filter(|&v| !done[v] && slot_of(v) == slot_of(v0) && (v == v0 || shared_inside))
                .collect();
            for &v in &term {
                done[v] = true;
            }
            self.term(unit, child, b, slot_of(v0), &term, above, &scale, cpvs);
        }
    }
}
