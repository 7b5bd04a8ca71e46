//! Standard errors for the model parameters (CodeML's `getSE = 1`).
//!
//! Approximate SEs come from the observed information matrix: the
//! numerical Hessian of −lnL at the MLE, inverted. Branch lengths are
//! held at their estimates and only the five mixture parameters
//! (κ, ω0, ω2, p0, p1) enter the Hessian — the quantity practitioners
//! report. The Hessian is computed by central second differences on the
//! *constrained* scale, so the SEs are directly interpretable; boundary
//! cases (e.g. ω2 → 1 under H1) yield `None` for the affected parameter
//! rather than a misleading number.

use crate::{Analysis, CoreError, Fit};
use slim_lik::ReuseEvaluator;
use slim_linalg::{Cholesky, Mat};
use slim_model::{BranchSiteModel, Hypothesis};

/// Standard errors for the five branch-site parameters; `None` where the
/// information matrix is not positive definite in that direction (typical
/// at parameter-space boundaries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandardErrors {
    /// SE of κ.
    pub kappa: Option<f64>,
    /// SE of ω0.
    pub omega0: Option<f64>,
    /// SE of ω2 (`None` under H0, where ω2 is fixed).
    pub omega2: Option<f64>,
    /// SE of p0.
    pub p0: Option<f64>,
    /// SE of p1.
    pub p1: Option<f64>,
}

fn pack(model: &BranchSiteModel) -> [f64; 5] {
    [model.kappa, model.omega0, model.omega2, model.p0, model.p1]
}

fn unpack(x: &[f64; 5]) -> BranchSiteModel {
    BranchSiteModel {
        kappa: x[0],
        omega0: x[1],
        omega2: x[2],
        p0: x[3],
        p1: x[4],
    }
}

impl Analysis {
    /// Standard errors at a fitted maximum, from the observed information
    /// matrix over the free mixture parameters.
    ///
    /// # Errors
    /// Propagates likelihood-evaluation failures.
    pub fn standard_errors(&self, fit: &Fit) -> Result<StandardErrors, CoreError> {
        let free: Vec<usize> = match fit.hypothesis {
            Hypothesis::H0 => vec![0, 1, 3, 4],
            Hypothesis::H1 => vec![0, 1, 2, 3, 4],
        };
        let center = pack(&fit.model);
        let bl = &fit.branch_lengths;

        // One evaluator for every probe: its CPV buffers are allocated
        // once, not per probe.
        let mut evaluator = ReuseEvaluator::new(self.problem(), self.engine_config().clone());
        let mut nll = |x: &[f64; 5]| -> Result<f64, CoreError> {
            let m = unpack(x);
            // Guard the domain: step sizes are small, but clamp anyway.
            if m.kappa <= 0.0
                || m.omega0 <= 0.0
                || m.omega0 >= 1.0
                || m.omega2 < 1.0 - 1e-9
                || m.p0 <= 0.0
                || m.p1 < 0.0
                || m.p0 + m.p1 >= 1.0
            {
                return Ok(f64::INFINITY);
            }
            Ok(-evaluator.evaluate(&m, bl)?.lnl)
        };

        let k = free.len();
        let f0 = nll(&center)?;
        let h: Vec<f64> = free
            .iter()
            .map(|&i| 1e-4 * center[i].abs().max(1e-2))
            .collect();

        // Central-difference Hessian over the free coordinates.
        let mut hess = Mat::zeros(k, k);
        for a in 0..k {
            for b in a..k {
                let (ia, ib) = (free[a], free[b]);
                let value = if a == b {
                    let mut xp = center;
                    xp[ia] += h[a];
                    let mut xm = center;
                    xm[ia] -= h[a];
                    (nll(&xp)? - 2.0 * f0 + nll(&xm)?) / (h[a] * h[a])
                } else {
                    let mut xpp = center;
                    xpp[ia] += h[a];
                    xpp[ib] += h[b];
                    let mut xpm = center;
                    xpm[ia] += h[a];
                    xpm[ib] -= h[b];
                    let mut xmp = center;
                    xmp[ia] -= h[a];
                    xmp[ib] += h[b];
                    let mut xmm = center;
                    xmm[ia] -= h[a];
                    xmm[ib] -= h[b];
                    (nll(&xpp)? - nll(&xpm)? - nll(&xmp)? + nll(&xmm)?) / (4.0 * h[a] * h[b])
                };
                hess[(a, b)] = value;
                hess[(b, a)] = value;
            }
        }

        // Invert via Cholesky when positive definite; otherwise report
        // per-parameter diagonal fallbacks where curvature is positive.
        let mut se = [None; 5];
        if hess.as_slice().iter().all(|v| v.is_finite()) {
            if let Ok(ch) = Cholesky::new(&hess) {
                for (a, &ia) in free.iter().enumerate() {
                    let mut e = vec![0.0; k];
                    e[a] = 1.0;
                    let col = ch.solve(&e);
                    if col[a] > 0.0 {
                        se[ia] = Some(col[a].sqrt());
                    }
                }
            } else {
                for (a, &ia) in free.iter().enumerate() {
                    if hess[(a, a)] > 0.0 {
                        se[ia] = Some((1.0 / hess[(a, a)]).sqrt());
                    }
                }
            }
        }

        Ok(StandardErrors {
            kappa: se[0],
            omega0: se[1],
            omega2: se[2],
            p0: se[3],
            p1: se[4],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisOptions, Backend};
    use slim_bio::{parse_newick, CodonAlignment};
    use slim_opt::GradMode;

    fn fitted() -> (Analysis, Fit) {
        let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATTTGGGCGA\n>B\nATGCCAAAATTTGGACGA\n>C\nATGCCCAAGTTCGGGCGT\n",
        )
        .unwrap();
        let analysis = Analysis::new(
            &tree,
            &aln,
            AnalysisOptions {
                backend: Backend::SlimPlus,
                max_iterations: 40,
                grad_mode: GradMode::Forward,
                ..Default::default()
            },
        )
        .unwrap();
        let fit = analysis.fit(Hypothesis::H0).unwrap();
        (analysis, fit)
    }

    #[test]
    fn standard_errors_finite_and_positive() {
        let (analysis, fit) = fitted();
        let se = analysis.standard_errors(&fit).unwrap();
        // H0: omega2 fixed → no SE.
        assert!(se.omega2.is_none());
        // Kappa is well identified on any data with transitions.
        if let Some(s) = se.kappa {
            assert!(s > 0.0 && s.is_finite());
            // On 6 codons the SE should be large but not absurd.
            assert!(s < 100.0, "kappa SE {s}");
        }
    }

    /// SE bits at a fixed H1 point of the three-taxon fixture (no fit,
    /// so only the likelihood path can move them).
    #[test]
    fn standard_error_bits_are_pinned() {
        let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
        let aln = CodonAlignment::from_fasta(
            ">A\nATGCCCAAATTTGGGCGA\n>B\nATGCCAAAATTTGGACGA\n>C\nATGCCCAAGTTCGGGCGT\n",
        )
        .unwrap();
        let options = AnalysisOptions {
            backend: Backend::SlimPlus,
            ..Default::default()
        };
        let analysis = Analysis::new(&tree, &aln, options).unwrap();
        let fit = Fit {
            hypothesis: Hypothesis::H1,
            lnl: f64::NAN,
            model: BranchSiteModel {
                kappa: 2.1,
                omega0: 0.3,
                omega2: 2.5,
                p0: 0.6,
                p1: 0.25,
            },
            branch_lengths: vec![0.15, 0.2, 0.1, 0.3],
            iterations: 0,
            f_evals: 0,
            wall_time: std::time::Duration::ZERO,
            termination: slim_opt::TerminationReason::MaxIterations,
        };
        let se = analysis.standard_errors(&fit).unwrap();
        let bits = [se.kappa, se.omega0, se.omega2, se.p0, se.p1].map(|s| s.map(f64::to_bits));
        assert_eq!(
            bits,
            [
                Some(0x3ffa07376890e6ef),
                None,
                None,
                Some(0x3fe3897d97c3f7af),
                None
            ]
        );
    }

    #[test]
    fn more_data_shrinks_kappa_se() {
        // Duplicate the alignment content 4x: information quadruples, SE
        // halves (approximately).
        let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
        let short = ">A\nATGCCCAAATTTGGGCGA\n>B\nATGCCAAAATTTGGACGA\n>C\nATGCCCAAGTTCGGGCGT\n";
        let long = format!(
            ">A\n{a}{a}{a}{a}\n>B\n{b}{b}{b}{b}\n>C\n{c}{c}{c}{c}\n",
            a = "ATGCCCAAATTTGGGCGA",
            b = "ATGCCAAAATTTGGACGA",
            c = "ATGCCCAAGTTCGGGCGT"
        );
        let options = AnalysisOptions {
            backend: Backend::SlimPlus,
            max_iterations: 40,
            grad_mode: GradMode::Forward,
            ..Default::default()
        };
        let se_of = |text: &str| {
            let aln = CodonAlignment::from_fasta(text).unwrap();
            let analysis = Analysis::new(&tree, &aln, options.clone()).unwrap();
            let fit = analysis.fit(Hypothesis::H0).unwrap();
            analysis.standard_errors(&fit).unwrap().kappa
        };
        let (s_short, s_long) = (se_of(short), se_of(&long));
        if let (Some(a), Some(b)) = (s_short, s_long) {
            assert!(b < a, "SE should shrink with data: {a} vs {b}");
        }
    }
}
