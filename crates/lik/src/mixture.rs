//! The one model description the evaluator fits.
//!
//! Every likelihood model the engine evaluates is a mixture of site
//! classes over at most three ω rate matrices, so one
//! [`ReuseEvaluator`](crate::ReuseEvaluator) serves them all (the §V-B
//! "further models"):
//!
//! | model | ω values | classes (proportion, background ω, foreground ω) | scale |
//! |-------|----------|---------------------------------------------------|-------|
//! | branch-site A | ω0, 1, ω2 | Table I's four | shared |
//! | M1a / M2a | ω0, 1 (, ω2) | (p_k, k, k) | shared |
//! | two-ratio | ω_bg, ω_fg | (1, 0, 1) | shared |
//! | M0 | ω | (1, 0, 0) | per class |

use crate::pruning::N_OMEGA;
use slim_bio::GeneticCode;
use slim_model::{
    rate_components, BranchSiteModel, ScalePolicy, SiteClass, SiteModel, SitesHypothesis,
    N_SITE_CLASSES,
};

/// How a mixture's ω rate matrices are normalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RateScale {
    /// One scale for every matrix: the stationary rate averaged over the
    /// classes' background ω. Branch lengths then count substitutions
    /// per codon on background branches, and a class with ω > 1 on the
    /// foreground branch really evolves faster there (CodeML's
    /// convention; see [`BranchSiteModel::shared_scale`]).
    Shared,
    /// Each matrix scaled to unit stationary rate (M0's one class).
    PerClass,
}

/// κ, up to [`N_OMEGA`] ω values, the scale rule and the site classes —
/// everything an evaluation depends on besides the branch lengths. A
/// `Copy` value in fixed arrays, which the evaluator keeps for its
/// bitwise diff.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mixture {
    pub(crate) kappa: f64,
    omegas: [f64; N_OMEGA],
    n_omegas: usize,
    pub(crate) scale: RateScale,
    /// Each class's proportion and its ω indices into `omegas`.
    classes: [SiteClass; N_SITE_CLASSES],
    n_classes: usize,
}

/// A class with ω index `bg` on background branches and `fg` on the
/// foreground branch.
fn class(proportion: f64, bg: usize, fg: usize) -> SiteClass {
    SiteClass {
        proportion,
        background_omega: bg,
        foreground_omega: fg,
    }
}

impl Mixture {
    /// # Panics
    /// Panics on more than [`N_OMEGA`] ω values or [`N_SITE_CLASSES`]
    /// classes.
    fn new(kappa: f64, omegas: &[f64], scale: RateScale, classes: &[SiteClass]) -> Mixture {
        let mut m = Mixture {
            kappa,
            omegas: [0.0; N_OMEGA],
            n_omegas: omegas.len(),
            scale,
            classes: [class(0.0, 0, 0); N_SITE_CLASSES],
            n_classes: classes.len(),
        };
        m.omegas[..omegas.len()].copy_from_slice(omegas);
        m.classes[..classes.len()].copy_from_slice(classes);
        m
    }

    /// Branch-site model A: Table I's four classes over `[ω0, 1, ω2]`.
    pub(crate) fn branch_site(model: &BranchSiteModel) -> Mixture {
        let (omegas, classes) = (model.omegas(), model.site_classes());
        Mixture::new(model.kappa, &omegas, RateScale::Shared, &classes)
    }

    /// M1a or M2a: each class keeps its ω on every branch.
    pub(crate) fn sites(model: &SiteModel, hypothesis: SitesHypothesis) -> Mixture {
        let classes = model.classes(hypothesis);
        let omegas: Vec<f64> = classes.iter().map(|c| c.omega).collect();
        let classes: Vec<SiteClass> = classes
            .iter()
            .enumerate()
            .map(|(k, c)| class(c.proportion, k, k))
            .collect();
        Mixture::new(model.kappa, &omegas, RateScale::Shared, &classes)
    }

    /// The two-ratio branch model: one class, `omega_foreground` on the
    /// foreground branch. The shared scale reduces to the background
    /// flux.
    pub(crate) fn two_ratio(kappa: f64, omega_background: f64, omega_foreground: f64) -> Mixture {
        let omegas = [omega_background, omega_foreground];
        Mixture::new(kappa, &omegas, RateScale::Shared, &[class(1.0, 0, 1)])
    }

    /// M0: one class, one ω on every branch.
    pub(crate) fn m0(kappa: f64, omega: f64) -> Mixture {
        Mixture::new(kappa, &[omega], RateScale::PerClass, &[class(1.0, 0, 0)])
    }

    /// The ω values, indexed by the classes' ω indices.
    pub(crate) fn omegas(&self) -> &[f64] {
        &self.omegas[..self.n_omegas]
    }

    /// The site classes, in the model's class order.
    pub(crate) fn classes(&self) -> &[SiteClass] {
        &self.classes[..self.n_classes]
    }

    /// Whether every global matches `other` bit for bit — the evaluator's
    /// test for keeping its decompositions and CPVs.
    pub(crate) fn same_bits(&self, other: &Mixture) -> bool {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        same(self.kappa, other.kappa)
            && self.scale == other.scale
            && self.omegas().len() == other.omegas().len()
            && self
                .omegas()
                .iter()
                .zip(other.omegas())
                .all(|(&a, &b)| same(a, b))
            && self.classes().len() == other.classes().len()
            && self.classes().iter().zip(other.classes()).all(|(a, b)| {
                same(a.proportion, b.proportion)
                    && a.background_omega == b.background_omega
                    && a.foreground_omega == b.foreground_omega
            })
    }

    /// The normalization every ω matrix of this mixture is built under.
    pub(crate) fn scale_policy(&self, code: &GeneticCode, pi: &[f64]) -> ScalePolicy {
        match self.scale {
            RateScale::PerClass => ScalePolicy::PerClass,
            RateScale::Shared => {
                let (syn, nonsyn) = rate_components(code, self.kappa, pi);
                ScalePolicy::External(
                    self.classes()
                        .iter()
                        .map(|c| c.proportion * (syn + self.omegas[c.background_omega] * nonsyn))
                        // check: allow(det-float-accum) fixed class-order sum of ≤ 4 terms, the same arithmetic as BranchSiteModel::shared_scale; pinned lnL bits depend on it
                        .sum(),
                )
            }
        }
    }

    /// The distinct ω values (the first `n` entries of the array), and
    /// the operator slot (index into them) of each ω. An ω with the same
    /// bits as an earlier one shares its slot, so each distinct ω is
    /// decomposed — and each of its `P(t)` built — once per evaluation
    /// (H0's ω2 = ω1 = 1).
    pub(crate) fn distinct_omegas(&self) -> ([f64; N_OMEGA], usize, [usize; N_OMEGA]) {
        let mut distinct = [0.0f64; N_OMEGA];
        let mut n = 0;
        let mut slot = [0; N_OMEGA];
        for (i, w) in self.omegas().iter().enumerate() {
            slot[i] = match distinct[..n]
                .iter()
                .position(|v| v.to_bits() == w.to_bits())
            {
                Some(s) => s,
                None => {
                    distinct[n] = *w;
                    n += 1;
                    n - 1
                }
            };
        }
        (distinct, n, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_scale_weights_every_class_by_its_omega() {
        // Every branch sees every site class, so the M1a/M2a scale averages
        // the stationary flux over all classes: Σ_k p_k (syn + ω_k nonsyn).
        let code = GeneticCode::universal();
        let pi = vec![1.0 / 61.0; 61];
        let m = SiteModel {
            kappa: 2.0,
            omega0: 0.5,
            omega2: 2.0,
            p0: 0.5,
            p1: 0.25,
        };
        let (syn, nonsyn) = rate_components(&code, m.kappa, &pi);
        let scale = |h| match Mixture::sites(&m, h).scale_policy(&code, &pi) {
            ScalePolicy::External(s) => s,
            other => panic!("{h:?}: expected a shared scale, got {other:?}"),
        };
        // M2a: 0.5·(syn + 0.5n) + 0.25·(syn + n) + 0.25·(syn + 2n) = syn + n,
        // which is 2.0 at unit fluxes.
        let m2a = syn + nonsyn;
        assert!((scale(SitesHypothesis::M2a) - m2a).abs() < 1e-12 * m2a);
        // M1a: 0.5·(syn + 0.5n) + 0.5·(syn + n), 1.75 at unit fluxes.
        let m1a = syn + 0.75 * nonsyn;
        assert!((scale(SitesHypothesis::M1a) - m1a).abs() < 1e-12 * m1a);
    }
}
