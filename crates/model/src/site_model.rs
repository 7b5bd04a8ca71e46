//! Site models M1a (nearly neutral) and M2a (positive selection).
//!
//! The paper focuses on the branch-site model but notes (§V-B) that "the
//! optimized likelihood computation can also be applied to further
//! maximum likelihood-based evolutionary models". M1a/M2a are the classic
//! *sites* test (Yang et al. 2005, ref. 13 in the paper): ω varies across
//! sites but not across branches, so no foreground branch is needed.
//!
//! | model | classes |
//! |---|---|
//! | M1a | (p0, 0 < ω0 < 1), (1−p0, ω1 = 1) |
//! | M2a | (p0, ω0), (p1, ω1 = 1), (1−p0−p1, ω2 > 1) |
//!
//! M1a vs M2a is an LRT with two extra parameters (ω2 and one mixing
//! proportion), conventionally referred to χ²₂.

/// Which sites hypothesis is being fitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SitesHypothesis {
    /// Nearly neutral: two classes, no positive selection.
    M1a,
    /// Positive selection: adds the ω2 > 1 class.
    M2a,
}

impl SitesHypothesis {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SitesHypothesis::M1a => "M1a",
            SitesHypothesis::M2a => "M2a",
        }
    }
}

/// One mixture component of a site model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OmegaClass {
    /// Mixing proportion.
    pub proportion: f64,
    /// The ω applied on **every** branch for sites of this class.
    pub omega: f64,
}

/// Parameters of M1a/M2a (M1a ignores `omega2` and folds `p1`'s mass
/// into the neutral class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteModel {
    /// Transition/transversion ratio.
    pub kappa: f64,
    /// Conserved-class ω, in (0, 1).
    pub omega0: f64,
    /// Positive-selection ω (> 1, M2a only).
    pub omega2: f64,
    /// Proportion of conserved sites.
    pub p0: f64,
    /// Proportion of neutral sites (M2a; M1a uses 1 − p0).
    pub p1: f64,
}

impl SiteModel {
    /// A reasonable optimization start.
    pub fn default_start(hypothesis: SitesHypothesis) -> SiteModel {
        match hypothesis {
            SitesHypothesis::M1a => SiteModel {
                kappa: 2.0,
                omega0: 0.2,
                omega2: 1.0,
                p0: 0.7,
                p1: 0.3,
            },
            SitesHypothesis::M2a => SiteModel {
                kappa: 2.0,
                omega0: 0.2,
                omega2: 2.5,
                p0: 0.6,
                p1: 0.3,
            },
        }
    }

    /// The mixture components under a hypothesis.
    pub fn classes(&self, hypothesis: SitesHypothesis) -> Vec<OmegaClass> {
        match hypothesis {
            SitesHypothesis::M1a => vec![
                OmegaClass {
                    proportion: self.p0,
                    omega: self.omega0,
                },
                OmegaClass {
                    proportion: 1.0 - self.p0,
                    omega: 1.0,
                },
            ],
            SitesHypothesis::M2a => {
                let p2 = (1.0 - self.p0 - self.p1).max(0.0);
                vec![
                    OmegaClass {
                        proportion: self.p0,
                        omega: self.omega0,
                    },
                    OmegaClass {
                        proportion: self.p1,
                        omega: 1.0,
                    },
                    OmegaClass {
                        proportion: p2,
                        omega: self.omega2,
                    },
                ]
            }
        }
    }

    /// Parameter validity under a hypothesis.
    pub fn is_valid(&self, hypothesis: SitesHypothesis) -> bool {
        let base = self.kappa > 0.0
            && self.kappa.is_finite()
            && self.omega0 > 0.0
            && self.omega0 < 1.0
            && self.p0 > 0.0
            && self.p0 < 1.0;
        match hypothesis {
            SitesHypothesis::M1a => base,
            SitesHypothesis::M2a => {
                base && self.omega2 >= 1.0 && self.p1 >= 0.0 && self.p0 + self.p1 < 1.0 + 1e-12
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_proportions_sum_to_one() {
        let m = SiteModel {
            kappa: 2.0,
            omega0: 0.1,
            omega2: 3.0,
            p0: 0.5,
            p1: 0.3,
        };
        for h in [SitesHypothesis::M1a, SitesHypothesis::M2a] {
            let total: f64 = m.classes(h).iter().map(|c| c.proportion).sum();
            assert!((total - 1.0).abs() < 1e-12, "{h:?}");
        }
    }

    #[test]
    fn m1a_has_two_classes_m2a_three() {
        let m = SiteModel::default_start(SitesHypothesis::M2a);
        assert_eq!(m.classes(SitesHypothesis::M1a).len(), 2);
        assert_eq!(m.classes(SitesHypothesis::M2a).len(), 3);
        // Class omegas in canonical order.
        let c = m.classes(SitesHypothesis::M2a);
        assert!(c[0].omega < 1.0);
        assert_eq!(c[1].omega, 1.0);
        assert!(c[2].omega > 1.0);
    }

    #[test]
    fn validity() {
        let good = SiteModel::default_start(SitesHypothesis::M2a);
        assert!(good.is_valid(SitesHypothesis::M2a));
        assert!(good.is_valid(SitesHypothesis::M1a));
        assert!(!SiteModel {
            omega0: 1.5,
            ..good
        }
        .is_valid(SitesHypothesis::M1a));
        assert!(!SiteModel {
            omega2: 0.5,
            ..good
        }
        .is_valid(SitesHypothesis::M2a));
        assert!(!SiteModel {
            p0: 0.8,
            p1: 0.5,
            ..good
        }
        .is_valid(SitesHypothesis::M2a));
    }

    #[test]
    fn names() {
        assert_eq!(SitesHypothesis::M1a.name(), "M1a");
        assert_eq!(SitesHypothesis::M2a.name(), "M2a");
    }
}
