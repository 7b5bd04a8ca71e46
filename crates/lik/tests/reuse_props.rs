//! Property tests on the evaluator's kept-state bit-identity contract.
//!
//! The evaluator ([`slim_lik::ReuseEvaluator`]) promises that for *any*
//! sequence of parameter updates — the optimizer-shaped mix of
//! single-coordinate finite-difference probes, multi-branch line-search
//! moves, global model steps, and exact repeats — every evaluation
//! returns the same log-likelihood **bits** as a stateless evaluation (a
//! fresh evaluator) of the same point, whether it was served from the
//! kept state or recomputed into the buffers the evaluator holds. Nobody
//! tells the evaluator what changed: its bitwise comparison with the
//! kept point is the only source of a repeat. Proptest drives that
//! promise over random sequences on every Table II dataset analog, at 1
//! and 4 threads, with
//! SIMD forced scalar and forced native; a fixed sequence also covers
//! every other engine preset, and another the shared pruning geometry
//! (site classes grouped by background ω) at 1 and 4 threads and pattern
//! blocks of 1, 2 and 256.

use proptest::prelude::*;
use slim_bio::{FreqModel, GeneticCode};
use slim_lik::site_models::{evaluate_site_model, site_model_log_likelihood};
use slim_lik::{
    site_class_log_likelihoods, EngineConfig, LikelihoodProblem, LikelihoodValue, ReuseEvaluator,
    SimdMode,
};
use slim_model::{BranchSiteModel, SiteModel, SitesHypothesis};
use slim_sim::{dataset, DatasetId};

/// One optimizer-like step applied to the current point.
#[derive(Debug, Clone)]
enum Step {
    /// Central-difference probe: nudge one branch length and restore it
    /// next step (the dominant evaluation shape in a numgrad fit).
    BranchProbe { branch: usize, eps: f64 },
    /// Line-search move: scale several branch lengths at once.
    BranchMove { branches: Vec<(usize, f64)> },
    /// Global model step (κ / ω0 / ω2 / p0 / p1).
    Global { which: usize, delta: f64 },
    /// Mixed step: a global change plus a branch change in one move.
    Mixed { which: usize, branch: usize },
    /// Re-evaluate the unchanged point (hit path).
    Repeat,
    /// Set (p0, p1) exactly: a proportion of exactly 0 drops classes and
    /// changes the pruning geometry.
    Proportions { p0: f64, p1: f64 },
}

/// Weighted mix of step kinds (the vendored proptest has no `prop_oneof`,
/// so the choice is an explicit flat-map over a weight range): 3 parts
/// single-branch probes — the numgrad-dominant shape — 2 parts
/// line-search moves, 2 parts global steps, 1 part mixed, 1 part repeat.
fn step_strategy(n_branches: usize) -> impl Strategy<Value = Step> {
    (0usize..9).prop_flat_map(move |kind| match kind {
        0..=2 => (0..n_branches, 0usize..3)
            .prop_map(|(branch, e)| Step::BranchProbe {
                branch,
                eps: [1e-6, -1e-6, 1e-4][e],
            })
            .boxed(),
        3..=4 => proptest::collection::vec((0..n_branches, 0.8f64..1.25), 1..4)
            .prop_map(|branches| Step::BranchMove { branches })
            .boxed(),
        5..=6 => (0usize..5, 0usize..2)
            .prop_map(|(which, d)| Step::Global {
                which,
                delta: [0.0625, -0.03125][d],
            })
            .boxed(),
        7 => (0usize..5, 0..n_branches)
            .prop_map(|(which, branch)| Step::Mixed { which, branch })
            .boxed(),
        _ => Just(Step::Repeat).boxed(),
    })
}

/// Apply `step` to the point.
fn apply(step: &Step, model: &mut BranchSiteModel, bl: &mut [f64]) {
    let global = |m: &mut BranchSiteModel, which: usize, delta: f64| match which {
        0 => m.kappa = (m.kappa + delta).max(0.5),
        1 => m.omega0 = (m.omega0 + delta).clamp(0.01, 0.9),
        2 => m.omega2 = (m.omega2 + delta).max(1.0),
        3 => m.p0 = (m.p0 + delta).clamp(0.05, 0.6),
        _ => m.p1 = (m.p1 + delta).clamp(0.05, 0.3),
    };
    match step {
        Step::BranchProbe { branch, eps } => bl[*branch] = (bl[*branch] + eps).max(1e-7),
        Step::BranchMove { branches } => {
            for &(b, factor) in branches {
                bl[b] *= factor;
            }
        }
        Step::Global { which, delta } => global(model, *which, *delta),
        Step::Mixed { which, branch } => {
            global(model, *which, 0.015625);
            bl[*branch] = (bl[*branch] * 1.0625).max(1e-7);
        }
        Step::Repeat => {}
        Step::Proportions { p0, p1 } => (model.p0, model.p1) = (*p0, *p1),
    }
}

/// Bit equality of lnL, every per-pattern and every per-class value.
fn assert_same_bits(
    i: usize,
    step: Option<&Step>,
    reused: &LikelihoodValue,
    fresh: &LikelihoodValue,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        reused.lnl.to_bits(),
        fresh.lnl.to_bits(),
        "step {} ({:?}): reused lnL {} != fresh lnL {}",
        i,
        step,
        reused.lnl,
        fresh.lnl
    );
    for (p, (a, b)) in reused
        .per_pattern
        .iter()
        .zip(&fresh.per_pattern)
        .enumerate()
    {
        prop_assert_eq!(a.to_bits(), b.to_bits(), "step {} pattern {} differs", i, p);
    }
    for (c, (a, b)) in reused.per_class.iter().zip(&fresh.per_class).enumerate() {
        for (p, (x, y)) in a.iter().zip(b).enumerate() {
            prop_assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "step {} class {} pattern {} differs",
                i,
                c,
                p
            );
        }
    }
    Ok(())
}

/// Run a random update sequence through one evaluator that keeps its
/// state and a stateless evaluation per step, asserting bit identity
/// throughout.
fn check_sequence(
    id: DatasetId,
    config: &EngineConfig,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    check_sequence_from(id, dataset(id).true_model, config, steps)
}

fn problem(id: DatasetId) -> LikelihoodProblem {
    let d = dataset(id);
    LikelihoodProblem::new(
        &d.tree,
        &d.alignment,
        &GeneticCode::universal(),
        FreqModel::F3x4,
    )
    .expect("preset dataset is well-formed")
}

/// [`check_sequence`] from the point `model`.
fn check_sequence_from(
    id: DatasetId,
    mut model: BranchSiteModel,
    config: &EngineConfig,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let problem = problem(id);
    let mut bl = dataset(id).tree.branch_lengths();

    let mut evaluator = ReuseEvaluator::new(&problem, config.clone());
    for (i, step) in std::iter::once(None)
        .chain(steps.iter().map(Some))
        .enumerate()
    {
        if let Some(step) = step {
            apply(step, &mut model, &mut bl);
        }
        let reused = evaluator.evaluate(&model, &bl).expect("reuse evaluation");
        let fresh =
            site_class_log_likelihoods(&problem, config, &model, &bl).expect("fresh evaluation");
        assert_same_bits(i, step, &reused, &fresh)?;
    }
    Ok(())
}

/// Cheap-enough analogs for the per-case proptest loop. Datasets ii
/// (2431 patterns) and iv (188 branches) run one fixed sequence each in
/// the deterministic test below instead.
const PROPTEST_IDS: [DatasetId; 2] = [DatasetId::I, DatasetId::III];

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Random optimizer-like sequences on the small analogs, random
    /// (threads, SIMD, block) schedule.
    #[test]
    fn reuse_is_bit_identical_over_random_sequences(
        dataset_ix in 0usize..PROPTEST_IDS.len(),
        threads_four in (0usize..2).prop_map(|b| b == 1),
        force_scalar in (0usize..2).prop_map(|b| b == 1),
        block in (0usize..3).prop_map(|i| [7usize, 64, 256][i]),
        steps in proptest::collection::vec(step_strategy(10), 2..7),
    ) {
        let id = PROPTEST_IDS[dataset_ix];
        // Branch indices from the strategy are modulo the real count.
        let n_branches = dataset(id).tree.branch_lengths().len();
        let steps: Vec<Step> = steps
            .into_iter()
            .map(|s| match s {
                Step::BranchProbe { branch, eps } => Step::BranchProbe { branch: branch % n_branches, eps },
                Step::BranchMove { branches } => Step::BranchMove {
                    branches: branches.into_iter().map(|(b, f)| (b % n_branches, f)).collect(),
                },
                Step::Mixed { which, branch } => Step::Mixed { which, branch: branch % n_branches },
                other => other,
            })
            .collect();
        let config = EngineConfig::slim()
            .with_threads(if threads_four { 4 } else { 1 })
            .with_pattern_block(block)
            .with_simd(if force_scalar { SimdMode::ForceScalar } else { SimdMode::Auto });
        check_sequence(id, &config, &steps)?;
    }
}

/// Every Table II analog, both thread counts, both SIMD modes, on one
/// fixed optimizer-shaped sequence — the coverage matrix the random test
/// samples from, run deterministically so the big analogs (ii, iv) are
/// exercised exactly once per mode. The other presets (codeml-style
/// kernels, the slim+ bundled products, the Eq. 12 symmetric operators)
/// run once per analog at one thread with auto SIMD.
#[test]
fn reuse_is_bit_identical_on_every_dataset_shape() {
    let steps = [
        Step::BranchProbe {
            branch: 0,
            eps: 1e-6,
        },
        Step::BranchProbe {
            branch: 0,
            eps: -1e-6,
        },
        Step::BranchMove {
            branches: vec![(1, 1.25), (3, 0.8)],
        },
        Step::Repeat,
        Step::Global {
            which: 0,
            delta: 0.0625,
        },
        Step::Mixed {
            which: 3,
            branch: 2,
        },
    ];
    for id in DatasetId::ALL {
        for threads in [1usize, 4] {
            for simd in [SimdMode::ForceScalar, SimdMode::Auto] {
                let config = EngineConfig::slim().with_threads(threads).with_simd(simd);
                check_sequence(id, &config, &steps)
                    .unwrap_or_else(|e| panic!("{} threads={threads} {simd:?}: {e}", id.label()));
            }
        }
        for config in [
            EngineConfig::codeml_style(),
            EngineConfig::slim_plus(),
            EngineConfig::slim_symmetric(),
        ] {
            let config = config.with_threads(1).with_simd(SimdMode::Auto);
            check_sequence(id, &config, &steps)
                .unwrap_or_else(|e| panic!("{} {}: {e}", id.label(), config.label));
        }
    }
}

/// Per node: whether a foreground branch lies below it.
fn foreground_path(problem: &LikelihoodProblem) -> Vec<bool> {
    let mut fg_path = vec![false; problem.children.len()];
    for &node in &problem.postorder {
        fg_path[node] = problem.children[node]
            .iter()
            .any(|&c| problem.is_foreground[c] || fg_path[c]);
    }
    fg_path
}

/// A ± probe of every branch of dataset i, on and off the foreground path.
fn probe_every_branch(n_branches: usize) -> Vec<Step> {
    (0..n_branches)
        .flat_map(|branch| [1e-6, -1e-6].map(|eps| Step::BranchProbe { branch, eps }))
        .collect()
}

/// The shared pruning geometry, where classes with one background ω are
/// pruned as one group and only foreground-path nodes per variant, on
/// dataset i at 1 and 4 threads and pattern blocks of 1, 2 and 256: H1,
/// and H0 (ω2 = 1, where classes 1 and 2b are one variant), with probes
/// of every branch before and after p1 is set to exactly 0 (classes 1
/// and 2b drop out and the geometry changes), then M2a at ω2 = 1, whose
/// classes 1 and 2 are one variant until a move splits them.
#[test]
fn shared_geometry_is_bit_identical_on_every_schedule() {
    let id = DatasetId::I;
    let p = problem(id);
    let fg_path = foreground_path(&p);
    // The probes reach every kind of node: the foreground branch, the
    // foreground path, and a background node with an internal child.
    assert!(p.is_foreground.iter().any(|&f| f));
    assert!((0..p.children.len()).any(|v| fg_path[v] && v != p.root));
    assert!((0..p.children.len())
        .any(|v| { !fg_path[v] && p.children[v].iter().any(|&c| !p.children[c].is_empty()) }));
    let truth = dataset(id).true_model;
    let probes = probe_every_branch(p.n_branches());
    let mut steps = probes.clone();
    steps.push(Step::Proportions {
        p0: truth.p0,
        p1: 0.0,
    });
    steps.extend(probes.iter().cloned());
    steps.push(Step::Proportions {
        p0: truth.p0,
        p1: truth.p1,
    });
    steps.push(Step::Repeat);
    let h0 = BranchSiteModel {
        omega2: 1.0,
        ..truth
    };
    for threads in [1usize, 4] {
        for block in [1usize, 2, 256] {
            let config = EngineConfig::slim()
                .with_threads(threads)
                .with_pattern_block(block);
            for (label, model) in [("H1", truth), ("H0", h0)] {
                check_sequence_from(id, model, &config, &steps)
                    .unwrap_or_else(|e| panic!("{label} threads={threads} block={block}: {e}"));
            }
            check_m2a_collapse(id, &config)
                .unwrap_or_else(|e| panic!("M2a threads={threads} block={block}: {e}"));
        }
    }
}

/// M2a from ω2 = 1: probes of every branch, ω2 = 2 (classes 1 and 2
/// split), ω2 = 1 (one again), more probes, and p0 + p1 = 1 (class 2's
/// proportion exactly 0) with probes under that geometry, each step
/// against a fresh evaluation.
fn check_m2a_collapse(id: DatasetId, config: &EngineConfig) -> Result<(), TestCaseError> {
    let problem = problem(id);
    let truth = dataset(id).true_model;
    let mut model = SiteModel {
        kappa: truth.kappa,
        omega0: truth.omega0,
        omega2: 1.0,
        p0: truth.p0,
        p1: truth.p1,
    };
    let mut bl = dataset(id).tree.branch_lengths();
    let probes = probe_every_branch(bl.len());
    let moves: [&dyn Fn(&mut SiteModel); 3] = [&|m| m.omega2 = 2.0, &|m| m.omega2 = 1.0, &|m| {
        (m.p0, m.p1) = (0.75, 0.25)
    }];
    let mut evaluator = ReuseEvaluator::new(&problem, config.clone());
    let mut i = 0usize;
    let mut check = |model: &SiteModel, bl: &[f64]| {
        let h = SitesHypothesis::M2a;
        let reused = evaluate_site_model(&mut evaluator, model, h, bl).expect("reuse evaluation");
        let fresh = site_model_log_likelihood(&problem, config, model, h, bl).expect("fresh");
        i += 1;
        assert_same_bits(i, None, &reused, &fresh).map(|()| reused)
    };
    check(&model, &bl)?;
    for phase in 0..=moves.len() {
        if phase > 0 {
            moves[phase - 1](&mut model);
            let value = check(&model, &bl)?;
            // The last move leaves class 2 unpruned.
            let dropped = value.per_class[2].iter().all(|&v| v == f64::NEG_INFINITY);
            prop_assert_eq!(dropped, phase == moves.len());
        }
        // No probes while ω2 = 2: the other phases are the collapsed
        // geometries.
        if phase != 1 {
            for step in &probes {
                if let Step::BranchProbe { branch, eps } = step {
                    bl[*branch] += eps;
                }
                check(&model, &bl)?;
            }
        }
    }
    Ok(())
}
