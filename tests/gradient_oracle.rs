//! The exact gradient against its oracle, central differences.
//!
//! Every fit maximizes over BFGS's unconstrained coordinates `z`, with
//! `x = to_constrained(z)` in the layout `[κ, ω0, ω2, p0, p1, t…]`, so the
//! check runs there: the evaluator's gradient, pulled back through the
//! fit's own transform, against a fourth-order central difference of
//! `lnL(to_constrained(z))` in every coordinate. The cases are the four
//! Table II analogs and random Yule trees; branch-site H0/H1, M1a/M2a and
//! the two-ratio model; every engine preset; pattern blocks that split a
//! unit into several blocks or chunks; and points near the transform
//! bounds (branch lengths near 1e-6 and 50, ω0 near both bounds,
//! p0 + p1 near 1). ω2 at exactly 1.0, where it shares an operator slot
//! with ω1, and a class at proportion exactly 0 are checked in the
//! constrained coordinates, where the transform cannot hide them.
//!
//! Tolerance: `|analytic − numeric| ≤ 1e-6 · (1 + |numeric|)`. Where the
//! likelihood itself is too rough for differences to resolve its slope
//! (a near-reducible generator on a branch near 50, say), differences at
//! two step sizes disagree by more than that; the oracle then abstains at
//! that coordinate, and the random cases check that it abstains rarely.

use proptest::prelude::*;
use slimcodeml::bio::{CodonAlignment, FreqModel, GeneticCode, Tree};
use slimcodeml::lik::branch_model::{gradient_branch, log_likelihood_branch};
use slimcodeml::lik::site_models::{evaluate_site_model, site_model_gradient};
use slimcodeml::lik::{EngineConfig, LikelihoodProblem, ReuseEvaluator};
use slimcodeml::model::{BranchSiteModel, Hypothesis, SiteModel, SitesHypothesis};
use slimcodeml::opt::{Block, BlockTransform};
use slimcodeml::sim::{dataset, simulate_alignment, yule_tree, DatasetId};

const REL_TOL: f64 = 1e-6;

/// A model the fits differentiate.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    BranchSite(Hypothesis),
    Sites(SitesHypothesis),
    TwoRatio,
}

const MODELS: [Model; 5] = [
    Model::BranchSite(Hypothesis::H0),
    Model::BranchSite(Hypothesis::H1),
    Model::Sites(SitesHypothesis::M1a),
    Model::Sites(SitesHypothesis::M2a),
    Model::TwoRatio,
];

fn presets() -> [EngineConfig; 4] {
    [
        EngineConfig::codeml_style(),
        EngineConfig::slim(),
        EngineConfig::slim_plus(),
        EngineConfig::slim_symmetric(),
    ]
}

impl Model {
    /// The fit's transform (slim-core's bounds); the two-ratio model's
    /// head is `[κ, ω_background, ω_foreground]`.
    fn transform(self, n_branches: usize) -> BlockTransform {
        let omega0 = Block::BoxBounded {
            lo: 1e-6,
            hi: 1.0 - 1e-6,
        };
        let mut blocks = vec![Block::LowerBounded { lo: 1e-3 }];
        blocks.extend(match self {
            Model::BranchSite(Hypothesis::H0) => vec![
                omega0,
                Block::Fixed { value: 1.0 },
                Block::SimplexWithRest { dim: 2 },
            ],
            Model::BranchSite(Hypothesis::H1) | Model::Sites(SitesHypothesis::M2a) => vec![
                omega0,
                Block::LowerBounded { lo: 1.0 },
                Block::SimplexWithRest { dim: 2 },
            ],
            Model::Sites(SitesHypothesis::M1a) => vec![
                omega0,
                Block::Fixed { value: 1.0 },
                omega0,
                Block::Fixed { value: 0.0 },
            ],
            Model::TwoRatio => vec![
                Block::LowerBounded { lo: 1e-6 },
                Block::LowerBounded { lo: 1e-6 },
            ],
        });
        blocks.push(Block::BoxBoundedVec {
            lo: 1e-6,
            hi: 50.0,
            count: n_branches,
        });
        BlockTransform::new(blocks)
    }

    fn head(self) -> usize {
        if self == Model::TwoRatio {
            3
        } else {
            5
        }
    }

    fn lnl(self, problem: &LikelihoodProblem, config: &EngineConfig, x: &[f64]) -> f64 {
        let mut ev = ReuseEvaluator::new(problem, config.clone());
        match self {
            Model::BranchSite(_) => ev.evaluate(&branch_site(x), &x[5..]).unwrap().lnl,
            Model::Sites(h) => {
                evaluate_site_model(&mut ev, &site_model(x), h, &x[5..])
                    .unwrap()
                    .lnl
            }
            Model::TwoRatio => {
                log_likelihood_branch(problem, config, x[0], x[1], x[2], &x[3..]).unwrap()
            }
        }
    }

    /// The gradient over the constrained layout, taken as a fit takes it:
    /// on an evaluator that just evaluated the point.
    fn gradient(self, problem: &LikelihoodProblem, config: &EngineConfig, x: &[f64]) -> Vec<f64> {
        let mut ev = ReuseEvaluator::new(problem, config.clone());
        match self {
            Model::BranchSite(_) => {
                ev.evaluate(&branch_site(x), &x[5..]).unwrap();
                ev.gradient(&branch_site(x), &x[5..]).unwrap()
            }
            Model::Sites(h) => {
                evaluate_site_model(&mut ev, &site_model(x), h, &x[5..]).unwrap();
                site_model_gradient(&mut ev, &site_model(x), h, &x[5..]).unwrap()
            }
            Model::TwoRatio => gradient_branch(problem, config, x[0], x[1], x[2], &x[3..]).unwrap(),
        }
    }
}

fn branch_site(x: &[f64]) -> BranchSiteModel {
    BranchSiteModel {
        kappa: x[0],
        omega0: x[1],
        omega2: x[2],
        p0: x[3],
        p1: x[4],
    }
}

fn site_model(x: &[f64]) -> SiteModel {
    SiteModel {
        kappa: x[0],
        omega0: x[1],
        omega2: x[2],
        p0: x[3],
        p1: x[4],
    }
}

/// Fourth-order central difference of `f` in coordinate `j`, at step
/// `scale · max(1, |z_j|)`.
fn central(f: &dyn Fn(&[f64]) -> f64, z: &[f64], j: usize, scale: f64) -> f64 {
    let h = scale * z[j].abs().max(1.0);
    let at = |step: f64| {
        let mut moved = z.to_vec();
        moved[j] += step;
        f(&moved)
    };
    (8.0 * (at(h) - at(-h)) - (at(2.0 * h) - at(-2.0 * h))) / (12.0 * h)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * (1.0 + b.abs())
}

fn assert_close(analytic: f64, numeric: f64, what: &str) {
    assert!(
        close(analytic, numeric),
        "{what}: analytic {analytic:e} vs central differences {numeric:e}"
    );
}

/// Compare in the unconstrained coordinates at `z`, over `coords`. With
/// `abstain`, a coordinate where differences at two step sizes disagree
/// is skipped; returns how many were.
fn check_z(
    model: Model,
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    z: &[f64],
    coords: &[usize],
    abstain: bool,
) -> usize {
    let t = model.transform(problem.n_branches());
    let x = t.to_constrained(z);
    let analytic = t.pull_back(z, &model.gradient(problem, config, &x));
    let f = |z: &[f64]| model.lnl(problem, config, &t.to_constrained(z));
    let mut abstained = 0;
    for &j in coords {
        let numeric = central(&f, z, j, 1e-3);
        if abstain && !close(central(&f, z, j, 5e-4), numeric) {
            abstained += 1;
            continue;
        }
        let what = format!("{model:?} on {} at z[{j}] of {z:?}", config.label);
        assert_close(analytic[j], numeric, &what);
    }
    abstained
}

/// A point inside the fit's box, in its unconstrained coordinates.
fn interior_z(model: Model, problem: &LikelihoodProblem, bl: &[f64]) -> Vec<f64> {
    let t = model.transform(problem.n_branches());
    let mut x = match model {
        Model::TwoRatio => vec![2.4, 0.25, 2.5],
        Model::BranchSite(Hypothesis::H0) => vec![2.4, 0.2, 1.0, 0.6, 0.25],
        Model::Sites(SitesHypothesis::M1a) => vec![2.4, 0.2, 1.0, 0.6, 0.0],
        _ => vec![2.4, 0.2, 2.5, 0.6, 0.25],
    };
    x.extend(bl.iter().map(|b| b.clamp(1e-4, 40.0)));
    t.to_unconstrained(&x)
}

fn problem_of(tree: &Tree, aln: &CodonAlignment) -> LikelihoodProblem {
    LikelihoodProblem::new(tree, aln, &GeneticCode::universal(), FreqModel::F3x4).unwrap()
}

/// Every model on each Table II analog, on the slim preset: all head
/// coordinates, and branches at both ends of the order and the
/// foreground branch (dataset iv has 188).
#[test]
fn table_ii_analogs_match_central_differences() {
    for id in DatasetId::ALL {
        let d = dataset(id);
        let problem = problem_of(&d.tree, &d.alignment);
        let n_br = problem.n_branches();
        let fg = (0..problem.children.len())
            .find(|&v| problem.is_foreground[v])
            .and_then(|v| problem.branch_index[v])
            .unwrap();
        for model in MODELS {
            let z = interior_z(model, &problem, &d.tree.branch_lengths());
            let globals = z.len() - n_br;
            let mut coords: Vec<usize> = (0..globals).collect();
            coords.extend([0, fg, n_br - 1].map(|b| globals + b));
            check_z(model, &problem, &EngineConfig::slim(), &z, &coords, false);
        }
    }
}

/// ω2 at exactly 1.0 shares ω1's slot: its derivative must count only the
/// classes that select ω2 (H1 at a rounded ω2, and H0's ω2 entry); and a
/// class at proportion exactly 0 is not pruned but leaves every entry
/// finite. Checked in the constrained coordinates.
#[test]
fn shared_slots_and_empty_classes_match_central_differences() {
    let d = dataset(DatasetId::I);
    let problem = problem_of(&d.tree, &d.alignment);
    let bl = d.tree.branch_lengths();
    for config in presets() {
        for (model, head) in [
            (
                Model::BranchSite(Hypothesis::H1),
                [2.4, 0.2, 1.0, 0.6, 0.25],
            ),
            (
                Model::BranchSite(Hypothesis::H0),
                [2.4, 0.2, 1.0, 0.6, 0.25],
            ),
            (
                Model::Sites(SitesHypothesis::M2a),
                [2.4, 0.2, 1.0, 0.6, 0.25],
            ),
            (Model::TwoRatio, [2.4, 0.3, 0.3, 0.0, 0.0]),
        ] {
            let mut x: Vec<f64> = head[..model.head()].to_vec();
            x.extend_from_slice(&bl);
            let analytic = model.gradient(&problem, &config, &x);
            let f = |x: &[f64]| model.lnl(&problem, &config, x);
            for j in 0..model.head() {
                let what = format!("{model:?} on {} at x[{j}] = {}", config.label, x[j]);
                assert_close(analytic[j], central(&f, &x, j, 1e-4), &what);
            }
        }
        // p0 + p1 = 1: classes 2a and 2b (M2a's class 2) have proportion
        // exactly 0.
        for model in [
            Model::BranchSite(Hypothesis::H1),
            Model::Sites(SitesHypothesis::M2a),
        ] {
            let mut x = vec![2.4, 0.2, 3.0, 0.75, 0.25];
            x.extend_from_slice(&bl);
            let g = model.gradient(&problem, &config, &x);
            assert!(g.iter().all(|v| v.is_finite()), "{model:?}: {g:?}");
            let f = |x: &[f64]| model.lnl(&problem, &config, x);
            for j in [0, 1, 5, 6] {
                let what = format!("{model:?} on {} with an empty class, x[{j}]", config.label);
                assert_close(g[j], central(&f, &x, j, 1e-4), &what);
            }
        }
    }
}

/// Which transform bounds a random case's point approaches.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Near {
    /// Every coordinate interior.
    Nothing,
    /// Some branch lengths within ~1e-5 of 1e-6 or of 50.
    Branches,
    /// ω0 (and the two-ratio ω values) within ~1e-6 of a bound.
    Omegas,
    /// p0 + p1 within ~1e-6 of 1.
    Proportions,
}

/// One random case: a Yule tree, its simulated alignment, a model, an
/// engine preset, a pattern block and a point.
#[derive(Debug, Clone)]
struct Case {
    leaves: usize,
    codons: usize,
    seed: u64,
    model: usize,
    preset: usize,
    block: usize,
    near: Near,
    /// Per coordinate, a value in [0, 1) that places it.
    coords: Vec<f64>,
}

fn case() -> impl Strategy<Value = Case> {
    (
        (3usize..8, 0usize..2, 0u64..1000),
        (0usize..5, 0usize..4, 0usize..3, 0usize..4),
        proptest::collection::vec(0.0f64..1.0, 20),
    )
        .prop_map(
            |((leaves, long, seed), (model, preset, block, near), coords)| Case {
                leaves,
                codons: [12, 150][long],
                seed,
                model,
                preset,
                block: [3, 40, 256][block],
                near: [
                    Near::Nothing,
                    Near::Branches,
                    Near::Omegas,
                    Near::Proportions,
                ][near],
                coords,
            },
        )
}

/// The point of `case` in `model`'s unconstrained coordinates: interior
/// coordinates in [−2, 2]; a coordinate near a bound at |z| in [12, 16].
fn point(case: &Case, model: Model, dim: usize, n_branches: usize) -> Vec<f64> {
    let globals = dim - n_branches;
    (0..dim)
        .map(|j| {
            let v = case.coords[j % case.coords.len()];
            let near = match case.near {
                Near::Nothing => false,
                Near::Branches => j >= globals && v < 0.5,
                // z[1] is ω0 (the two-ratio model's ω values are z[1..3]).
                Near::Omegas => j == 1 || (model == Model::TwoRatio && j == 2),
                // The softmax logits of (p0, p1), last among the globals.
                Near::Proportions => {
                    model != Model::TwoRatio
                        && model != Model::Sites(SitesHypothesis::M1a)
                        && (j + 2 == globals || j + 1 == globals)
                }
            };
            // The two-ratio ω values are bounded below only.
            let below_only = model == Model::TwoRatio && (1..3).contains(&j);
            if !near {
                4.0 * v - 2.0
            } else if case.near == Near::Proportions {
                12.0 + 4.0 * v
            } else if below_only {
                -12.0 - 4.0 * v
            } else {
                let side = if ((v * 1e6) as u64).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                side * (12.0 + 4.0 * v)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn random_trees_match_central_differences(case in case()) {
        // The alignment is simulated at the point itself, as a fitted
        // point fits its data: a branch near 1e-6 or an ω near 1e-6 shows
        // no change it forbids, rather than changes only rounding noise
        // could explain.
        let mut tree = yule_tree(case.leaves, 0.2, case.seed);
        let model = MODELS[case.model];
        let transform = model.transform(tree.n_branches());
        let dim = transform.unconstrained_len();
        let z = point(&case, model, dim, tree.n_branches());
        let x = transform.to_constrained(&z);
        tree.set_branch_lengths(&x[model.head()..]);
        let truth = match model {
            Model::TwoRatio => BranchSiteModel {
                kappa: x[0],
                omega0: x[1],
                omega2: 1.0,
                p0: 1.0,
                p1: 0.0,
            },
            Model::Sites(SitesHypothesis::M1a) => BranchSiteModel {
                p1: 1.0 - x[3],
                ..branch_site(&x)
            },
            _ => branch_site(&x),
        };
        let pi = vec![1.0 / 61.0; 61];
        let aln = simulate_alignment(&tree, &truth, &pi, case.codons, case.seed ^ 0xABCD);
        let problem = problem_of(&tree, &aln);
        let config = presets()[case.preset].clone().with_pattern_block(case.block);
        let coords: Vec<usize> = (0..dim).collect();
        let abstained = check_z(model, &problem, &config, &z, &coords, true);
        prop_assert!(4 * abstained <= dim, "the oracle abstained at {abstained} of {dim} coordinates: {case:?} {model:?} at {z:?}");
    }
}
