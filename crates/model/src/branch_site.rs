//! Branch-site model A (Table I of the paper).
//!
//! Site classes and their ω values on background vs foreground branches:
//!
//! | class | proportion              | background | foreground |
//! |-------|-------------------------|------------|------------|
//! | 0     | p0                      | ω0         | ω0         |
//! | 1     | p1                      | ω1 = 1     | ω1 = 1     |
//! | 2a    | (1−p0−p1)·p0/(p0+p1)    | ω0         | ω2         |
//! | 2b    | (1−p0−p1)·p1/(p0+p1)    | ω1 = 1     | ω2         |
//!
//! H1 (model A) has ω2 ≥ 1 free; H0 fixes ω2 = 1.

/// Number of site classes in branch-site model A.
pub const N_SITE_CLASSES: usize = 4;

/// Number of *distinct* ω values (ω0, ω1 = 1, ω2) — and hence distinct
/// rate matrices / eigendecompositions per likelihood evaluation.
pub const N_OMEGA_CLASSES: usize = 3;

/// Which hypothesis of the positive-selection test is being fitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hypothesis {
    /// Null: branch-site model A with ω₂ = 1 fixed.
    H0,
    /// Alternative: branch-site model A with ω₂ ≥ 1 estimated.
    H1,
}

impl Hypothesis {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Hypothesis::H0 => "H0",
            Hypothesis::H1 => "H1",
        }
    }
}

/// One of the four site classes, with its proportion and the indices of
/// its background/foreground ω within [`BranchSiteModel::omegas`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteClass {
    /// Mixing proportion of this class (Table I column 2).
    pub proportion: f64,
    /// Index into `omegas()` used on background branches.
    pub background_omega: usize,
    /// Index into `omegas()` used on the foreground branch.
    pub foreground_omega: usize,
}

/// Parameter set of branch-site model A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchSiteModel {
    /// Transition/transversion rate ratio κ > 0.
    pub kappa: f64,
    /// Conserved-class selective pressure, 0 < ω0 < 1.
    pub omega0: f64,
    /// Foreground positive-selection pressure, ω2 ≥ 1 (exactly 1 under H0).
    pub omega2: f64,
    /// Proportion of class-0 sites, p0 > 0.
    pub p0: f64,
    /// Proportion of class-1 sites, p1 ≥ 0 with p0 + p1 ≤ 1.
    pub p1: f64,
}

impl BranchSiteModel {
    /// A reasonable starting point for optimization (CodeML uses similar
    /// defaults before jittering with the seeded RNG).
    pub fn default_start(hypothesis: Hypothesis) -> Self {
        BranchSiteModel {
            kappa: 2.0,
            omega0: 0.2,
            omega2: match hypothesis {
                Hypothesis::H0 => 1.0,
                Hypothesis::H1 => 2.0,
            },
            p0: 0.7,
            p1: 0.2,
        }
    }

    /// The distinct ω values: `[ω0, ω1 = 1, ω2]`. Only these three rate
    /// matrices are ever built — the core saving that makes the per-branch
    /// expm (not the Q construction) the hot spot.
    pub fn omegas(&self) -> [f64; N_OMEGA_CLASSES] {
        [self.omega0, 1.0, self.omega2]
    }

    /// The four site classes of Table I.
    ///
    /// # Panics
    /// Panics (debug) if the proportions are outside the simplex.
    pub fn site_classes(&self) -> [SiteClass; N_SITE_CLASSES] {
        let (p0, p1) = (self.p0, self.p1);
        debug_assert!(
            p0 > 0.0 && p1 >= 0.0 && p0 + p1 <= 1.0 + 1e-12,
            "invalid proportions"
        );
        let rest = (1.0 - p0 - p1).max(0.0);
        let denom = p0 + p1;
        let p2a = rest * p0 / denom;
        let p2b = rest * p1 / denom;
        [
            SiteClass {
                proportion: p0,
                background_omega: 0,
                foreground_omega: 0,
            },
            SiteClass {
                proportion: p1,
                background_omega: 1,
                foreground_omega: 1,
            },
            SiteClass {
                proportion: p2a,
                background_omega: 0,
                foreground_omega: 2,
            },
            SiteClass {
                proportion: p2b,
                background_omega: 1,
                foreground_omega: 2,
            },
        ]
    }

    /// `∂(class proportion)/∂(p0, p1)` for each of Table I's classes, in
    /// [`site_classes`](Self::site_classes) order. Where the remainder
    /// `1 − p0 − p1` is clamped at 0, it is flat.
    pub fn proportion_jacobian(&self) -> [[f64; 2]; N_SITE_CLASSES] {
        let (p0, p1) = (self.p0, self.p1);
        let raw = 1.0 - p0 - p1;
        let (rest, drest) = if raw > 0.0 { (raw, -1.0) } else { (0.0, 0.0) };
        let s = p0 + p1;
        let s2 = s * s;
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [
                drest * p0 / s + rest * p1 / s2,
                drest * p0 / s - rest * p0 / s2,
            ],
            [
                drest * p1 / s - rest * p1 / s2,
                drest * p1 / s + rest * p0 / s2,
            ],
        ]
    }

    /// Proportion of sites under positive selection on the foreground
    /// branch (classes 2a + 2b).
    pub fn positive_selection_proportion(&self) -> f64 {
        let c = self.site_classes();
        c[2].proportion + c[3].proportion
    }

    /// The shared branch-site rate scale: the stationary substitution
    /// rate averaged over site classes **on background branches**, given
    /// the synonymous/non-synonymous flux components from
    /// [`crate::codon_model::rate_components`].
    ///
    /// All four ω rate matrices are divided by this one factor, so a site
    /// under ω₂ > 1 on the foreground branch genuinely accumulates more
    /// substitutions per unit branch length — the signal the LRT detects.
    /// (Normalizing each ω class separately would cancel that rate
    /// elevation and cripple the test; CodeML shares the scale.)
    pub fn shared_scale(&self, syn_flux: f64, nonsyn_flux: f64) -> f64 {
        let mu = |omega: f64| syn_flux + omega * nonsyn_flux;
        let omegas = self.omegas();
        self.site_classes()
            .iter()
            .map(|c| c.proportion * mu(omegas[c.background_omega]))
            .sum()
    }

    /// Expected synonymous and non-synonymous substitutions per codon on
    /// a branch of length `t` (in shared-scale units), given the flux
    /// components from [`crate::codon_model::rate_components`] — the
    /// quantities CodeML reports as `t·S·dS`-style branch summaries.
    ///
    /// Returns `(expected_synonymous, expected_nonsynonymous)`.
    pub fn branch_expected_substitutions(
        &self,
        syn_flux: f64,
        nonsyn_flux: f64,
        t: f64,
        is_foreground: bool,
    ) -> (f64, f64) {
        let scale = self.shared_scale(syn_flux, nonsyn_flux);
        let omegas = self.omegas();
        let mut nonsyn = 0.0;
        for class in self.site_classes() {
            let w = omegas[if is_foreground {
                class.foreground_omega
            } else {
                class.background_omega
            }];
            nonsyn += class.proportion * w * nonsyn_flux;
        }
        (t * syn_flux / scale, t * nonsyn / scale)
    }

    /// The effective (class-averaged) ω on a branch: the expected dN/dS a
    /// single-ratio model would see there.
    pub fn effective_omega(&self, is_foreground: bool) -> f64 {
        let omegas = self.omegas();
        self.site_classes()
            .iter()
            .map(|c| {
                c.proportion
                    * omegas[if is_foreground {
                        c.foreground_omega
                    } else {
                        c.background_omega
                    }]
            })
            .sum()
    }

    /// Validity check for optimizer candidates.
    pub fn is_valid(&self, hypothesis: Hypothesis) -> bool {
        let omega2_ok = match hypothesis {
            Hypothesis::H0 => (self.omega2 - 1.0).abs() < 1e-12,
            Hypothesis::H1 => self.omega2 >= 1.0 - 1e-12,
        };
        self.kappa > 0.0
            && self.kappa.is_finite()
            && self.omega0 > 0.0
            && self.omega0 < 1.0
            && omega2_ok
            && self.omega2.is_finite()
            && self.p0 > 0.0
            && self.p1 >= 0.0
            && self.p0 + self.p1 < 1.0 + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BranchSiteModel {
        BranchSiteModel {
            kappa: 2.0,
            omega0: 0.1,
            omega2: 3.0,
            p0: 0.6,
            p1: 0.3,
        }
    }

    #[test]
    fn proportions_sum_to_one() {
        let m = model();
        let total: f64 = m.site_classes().iter().map(|c| c.proportion).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_i_proportions() {
        let m = model();
        let c = m.site_classes();
        assert!((c[0].proportion - 0.6).abs() < 1e-15);
        assert!((c[1].proportion - 0.3).abs() < 1e-15);
        // (1-0.9)*0.6/0.9 and (1-0.9)*0.3/0.9
        assert!((c[2].proportion - 0.1 * 0.6 / 0.9).abs() < 1e-12);
        assert!((c[3].proportion - 0.1 * 0.3 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn omega_assignment_matches_table_i() {
        let m = model();
        let omegas = m.omegas();
        assert_eq!(omegas, [0.1, 1.0, 3.0]);
        let c = m.site_classes();
        // class 0: ω0 everywhere
        assert_eq!((c[0].background_omega, c[0].foreground_omega), (0, 0));
        // class 1: ω1 everywhere
        assert_eq!((c[1].background_omega, c[1].foreground_omega), (1, 1));
        // class 2a: ω0 background, ω2 foreground
        assert_eq!((c[2].background_omega, c[2].foreground_omega), (0, 2));
        // class 2b: ω1 background, ω2 foreground
        assert_eq!((c[3].background_omega, c[3].foreground_omega), (1, 2));
    }

    #[test]
    fn proportion_jacobian_matches_differences() {
        for (p0, p1) in [(0.6, 0.25), (0.1, 0.05), (0.7, 0.29)] {
            let m = BranchSiteModel { p0, p1, ..model() };
            let jac = m.proportion_jacobian();
            for (k, step) in [(0, [1e-7, 0.0]), (1, [0.0, 1e-7])] {
                let moved = |sign: f64| {
                    BranchSiteModel {
                        p0: p0 + sign * step[0],
                        p1: p1 + sign * step[1],
                        ..m
                    }
                    .site_classes()
                };
                let (up, down) = (moved(1.0), moved(-1.0));
                for (c, row) in jac.iter().enumerate() {
                    let d = (up[c].proportion - down[c].proportion) / 2e-7;
                    assert!(
                        (row[k] - d).abs() < 1e-6,
                        "({p0}, {p1}) class {c}, p{k}: {} vs {d}",
                        row[k]
                    );
                }
            }
        }
        // On the simplex edge the remainder classes are empty and flat.
        let edge = BranchSiteModel {
            p0: 0.75,
            p1: 0.25,
            ..model()
        };
        assert_eq!(edge.proportion_jacobian()[2..], [[0.0; 2]; 2]);
    }

    #[test]
    fn positive_selection_proportion() {
        let m = model();
        assert!((m.positive_selection_proportion() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn validity() {
        let m = model();
        assert!(m.is_valid(Hypothesis::H1));
        assert!(!m.is_valid(Hypothesis::H0)); // omega2 = 3 under H0 invalid
        let h0 = BranchSiteModel { omega2: 1.0, ..m };
        assert!(h0.is_valid(Hypothesis::H0));
        assert!(h0.is_valid(Hypothesis::H1)); // boundary allowed under H1

        assert!(!BranchSiteModel { omega0: 1.5, ..m }.is_valid(Hypothesis::H1));
        assert!(!BranchSiteModel { kappa: -1.0, ..m }.is_valid(Hypothesis::H1));
        assert!(!BranchSiteModel {
            p0: 0.9,
            p1: 0.2,
            ..m
        }
        .is_valid(Hypothesis::H1));
    }

    #[test]
    fn default_starts_are_valid() {
        assert!(BranchSiteModel::default_start(Hypothesis::H0).is_valid(Hypothesis::H0));
        assert!(BranchSiteModel::default_start(Hypothesis::H1).is_valid(Hypothesis::H1));
    }

    #[test]
    fn branch_substitution_expectations() {
        let m = model(); // ω0 = 0.1, ω2 = 3.0, p0 = 0.6, p1 = 0.3
        let (syn, nonsyn) = (0.5, 1.0);
        let t = 2.0;
        let (s_bg, n_bg) = m.branch_expected_substitutions(syn, nonsyn, t, false);
        let (s_fg, n_fg) = m.branch_expected_substitutions(syn, nonsyn, t, true);
        // Synonymous expectation is ω-independent: same on both roles.
        assert!((s_bg - s_fg).abs() < 1e-12);
        // Positive selection elevates non-synonymous counts on the
        // foreground branch only.
        assert!(n_fg > n_bg);
        // Totals on the background equal t (branch lengths are measured
        // in expected substitutions per codon under background mixing).
        assert!((s_bg + n_bg - t).abs() < 1e-12, "{}", s_bg + n_bg);
    }

    #[test]
    fn effective_omega_mixture() {
        let m = model();
        // background: 0.6·0.1 + 0.3·1 + 2a·0.1 + 2b·1
        let c = m.site_classes();
        let expect_bg = c[0].proportion * 0.1
            + c[1].proportion * 1.0
            + c[2].proportion * 0.1
            + c[3].proportion * 1.0;
        assert!((m.effective_omega(false) - expect_bg).abs() < 1e-12);
        assert!(m.effective_omega(true) > m.effective_omega(false));
    }

    #[test]
    fn shared_scale_is_background_mixture() {
        let m = model(); // p0=0.6, p1=0.3 → classes use ω0 on 0.6+(0.1·0.6/0.9), ω1 on the rest
        let (syn, nonsyn) = (0.4, 0.8);
        let mu = |w: f64| syn + w * nonsyn;
        let c = m.site_classes();
        let expect = (c[0].proportion + c[2].proportion) * mu(0.1)
            + (c[1].proportion + c[3].proportion) * mu(1.0);
        assert!((m.shared_scale(syn, nonsyn) - expect).abs() < 1e-14);
        // ω2 must NOT enter the scale (it only acts on the foreground).
        let m2 = BranchSiteModel { omega2: 99.0, ..m };
        assert_eq!(m.shared_scale(syn, nonsyn), m2.shared_scale(syn, nonsyn));
    }

    #[test]
    fn hypothesis_names() {
        assert_eq!(Hypothesis::H0.name(), "H0");
        assert_eq!(Hypothesis::H1.name(), "H1");
    }
}
