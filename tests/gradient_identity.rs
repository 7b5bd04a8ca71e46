//! Gradient bits are reproducible.
//!
//! The exact gradient is one adjoint pass over the evaluator's kept
//! state, run on the calling thread in fixed order through dispatched
//! kernels only. So, like every lnL bit, its bits must not depend on the
//! thread count, the SIMD dispatch mode, whether the evaluator's state
//! was kept from earlier evaluations or built fresh, or whether the
//! metrics registry and the trace recorder are on. Checked on every
//! Table II analog for branch-site H0 and H1 and for M2a. Nor may they
//! depend on the order of the alignment's columns or records: the pass
//! sums over patterns in an order the patterns alone decide.

use slimcodeml::bio::{CodonAlignment, FreqModel, GeneticCode};
use slimcodeml::lik::site_models::site_model_gradient;
use slimcodeml::lik::{EngineConfig, LikelihoodProblem, ReuseEvaluator, SimdMode};
use slimcodeml::model::{BranchSiteModel, SiteModel, SitesHypothesis};
use slimcodeml::sim::{dataset, DatasetId};

/// One gradient on `ev`, at `model` (branch-site or, with `sites`, M2a).
fn gradient(ev: &mut ReuseEvaluator, model: &BranchSiteModel, sites: bool, bl: &[f64]) -> Vec<u64> {
    let g = if sites {
        let m = SiteModel {
            kappa: model.kappa,
            omega0: model.omega0,
            omega2: model.omega2,
            p0: model.p0,
            p1: model.p1,
        };
        site_model_gradient(ev, &m, SitesHypothesis::M2a, bl).unwrap()
    } else {
        ev.gradient(model, bl).unwrap()
    };
    g.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn gradient_bits_are_identical_across_threads_simd_state_and_sinks() {
    for id in DatasetId::ALL {
        let d = dataset(id);
        let problem = LikelihoodProblem::new(
            &d.tree,
            &d.alignment,
            &GeneticCode::universal(),
            FreqModel::F3x4,
        )
        .unwrap();
        let bl = d.tree.branch_lengths();
        let h0 = BranchSiteModel {
            omega2: 1.0,
            ..d.true_model
        };
        for (model, sites) in [(h0, false), (d.true_model, false), (d.true_model, true)] {
            let fresh = |config: EngineConfig| {
                gradient(
                    &mut ReuseEvaluator::new(&problem, config),
                    &model,
                    sites,
                    &bl,
                )
            };
            let reference = fresh(EngineConfig::slim());
            let label = format!("dataset {} {model:?} sites={sites}", id.label());
            for threads in [1, 4] {
                for simd in [SimdMode::ForceScalar, SimdMode::Auto] {
                    let config = EngineConfig::slim().with_threads(threads).with_simd(simd);
                    assert_eq!(
                        fresh(config),
                        reference,
                        "{label}: threads {threads}, {simd:?}"
                    );
                }
            }
            // Kept state: other points first, then back to this one.
            let mut ev = ReuseEvaluator::new(&problem, EngineConfig::slim().with_threads(4));
            let mut moved = bl.clone();
            moved[0] *= 1.5;
            let other = BranchSiteModel {
                kappa: model.kappa * 1.25,
                ..model
            };
            gradient(&mut ev, &other, sites, &moved);
            gradient(&mut ev, &model, sites, &moved);
            assert_eq!(
                gradient(&mut ev, &model, sites, &bl),
                reference,
                "{label}: kept state"
            );
            assert_eq!(
                gradient(&mut ev, &model, sites, &bl),
                reference,
                "{label}: repeat"
            );
            ev.clear();
            assert_eq!(
                gradient(&mut ev, &model, sites, &bl),
                reference,
                "{label}: cleared"
            );
            // Metrics and trace on together.
            slimcodeml::obs::set_enabled(true);
            slimcodeml::trace::set_enabled(true);
            slimcodeml::lik::register_metrics();
            let observed = fresh(EngineConfig::slim());
            slimcodeml::obs::set_enabled(false);
            slimcodeml::trace::set_enabled(false);
            slimcodeml::trace::clear();
            assert_eq!(observed, reference, "{label}: metrics and trace on");
        }
    }
}

/// `aln` with its records reversed and its columns rotated by a third
/// and then reversed, as FASTA text would present the same data.
fn rearranged(aln: &CodonAlignment) -> CodonAlignment {
    let n = aln.n_codons();
    let columns: Vec<usize> = (0..n).rev().map(|c| (c + n / 3) % n).collect();
    let mut fasta = String::new();
    for r in (0..aln.names().len()).rev() {
        fasta.push_str(&format!(">{}\n", aln.names()[r]));
        for &c in &columns {
            fasta.push_str(&aln.sequence(r)[c].to_string_repr());
        }
        fasta.push('\n');
    }
    CodonAlignment::from_fasta(&fasta).unwrap()
}

#[test]
fn gradient_bits_ignore_column_and_record_order() {
    for id in DatasetId::ALL {
        let d = dataset(id);
        let problem = |aln: &CodonAlignment| {
            LikelihoodProblem::new(&d.tree, aln, &GeneticCode::universal(), FreqModel::F3x4)
                .unwrap()
        };
        let (original, moved) = (problem(&d.alignment), problem(&rearranged(&d.alignment)));
        let bl = d.tree.branch_lengths();
        for sites in [false, true] {
            let on = |p: &LikelihoodProblem| {
                let mut ev = ReuseEvaluator::new(p, EngineConfig::slim());
                gradient(&mut ev, &d.true_model, sites, &bl)
            };
            assert_eq!(
                on(&moved),
                on(&original),
                "dataset {} sites={sites}",
                id.label()
            );
        }
    }
}
