//! Integration tests asserting the *shapes* of the paper's results: the
//! Slim engine computes the same numbers as the CodeML-style engine and
//! computes them faster where the paper says it should.

use slimcodeml::bio::{FreqModel, GeneticCode};
use slimcodeml::expm::EigenSystem;
use slimcodeml::lik::{log_likelihood, EngineConfig, LikelihoodProblem};
use slimcodeml::linalg::EigenMethod;
use slimcodeml::model::{build_rate_matrix, BranchSiteModel, Hypothesis, ScalePolicy};
use slimcodeml::sim::{dataset, DatasetId};
use std::time::Instant;

/// §IV-1 accuracy on the real dataset analogs: single likelihood
/// evaluations of the two engines agree to near machine precision.
#[test]
fn engines_agree_on_every_dataset_shape() {
    let code = GeneticCode::universal();
    let model = BranchSiteModel::default_start(Hypothesis::H1);
    // Dataset ii (5004 codons) is too slow for a unit test; i/iii/iv
    // cover short & tall shapes.
    for id in [DatasetId::I, DatasetId::III, DatasetId::IV] {
        let ds = dataset(id);
        let problem =
            LikelihoodProblem::new(&ds.tree, &ds.alignment, &code, FreqModel::F3x4).unwrap();
        let bl = ds.tree.branch_lengths();
        let base = log_likelihood(&problem, &EngineConfig::codeml_style(), &model, &bl).unwrap();
        let slim = log_likelihood(&problem, &EngineConfig::slim(), &model, &bl).unwrap();
        let d = ((base - slim) / base).abs();
        assert!(
            d < 5.5e-8,
            "dataset {}: D = {d} exceeds the paper's worst case",
            id.label()
        );
    }
}

/// The Eq. 10 syrk reconstruction must beat the naive Eq. 9 loop — the
/// paper's core performance claim, asserted as a conservative 1.5× bound
/// (the paper's per-iteration speedups are ≥ 1.7×).
#[test]
fn slim_expm_is_faster_than_naive() {
    let code = GeneticCode::universal();
    let pi = vec![1.0 / 61.0; 61];
    let rm = build_rate_matrix(&code, 2.0, 0.5, &pi, ScalePolicy::PerClass);
    let es = EigenSystem::from_rate_matrix(&rm, EigenMethod::HouseholderQl).unwrap();
    let reps = 300;

    // Warm up.
    let _ = es.transition_matrix_eq9_naive(0.3);
    let _ = es.transition_matrix_eq10(0.3);

    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(es.transition_matrix_eq9_naive(0.3));
    }
    let naive_time = t0.elapsed();

    let t1 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(es.transition_matrix_eq10(0.3));
    }
    let slim_time = t1.elapsed();

    let ratio = naive_time.as_secs_f64() / slim_time.as_secs_f64();
    assert!(
        ratio > 1.5,
        "expected the syrk path to be >1.5x faster, measured {ratio:.2}x \
         (naive {naive_time:?} vs slim {slim_time:?})"
    );
}

/// Speedup of a full likelihood evaluation grows with species count
/// (dataset iv's shape) — the mechanism behind Fig. 3.
///
/// The engines are timed interleaved, one evaluation each per round, and
/// each keeps its fastest of 15 rounds after a warm-up round, so a burst
/// of load on a shared host slows a round of both engines rather than a
/// whole block of one. A slim evaluation at 10 species takes about 1 ms,
/// so its fastest round needs that many draws to settle.
#[test]
fn eval_speedup_grows_with_species() {
    use slimcodeml::sim::subsample_dataset;
    let code = GeneticCode::universal();
    let model = BranchSiteModel::default_start(Hypothesis::H1);

    let measure = |n_species: usize| -> f64 {
        let ds = subsample_dataset(n_species);
        let problem =
            LikelihoodProblem::new(&ds.tree, &ds.alignment, &code, FreqModel::F3x4).unwrap();
        let bl = ds.tree.branch_lengths();
        let engines = [EngineConfig::codeml_style(), EngineConfig::slim()];
        let mut fastest = [f64::INFINITY; 2];
        for round in 0..16 {
            for (best, cfg) in fastest.iter_mut().zip(&engines) {
                let start = Instant::now();
                std::hint::black_box(log_likelihood(&problem, cfg, &model, &bl).unwrap());
                if round > 0 {
                    *best = best.min(start.elapsed().as_secs_f64());
                }
            }
        }
        fastest[0] / fastest[1]
    };

    let small = measure(10);
    let large = measure(60);
    eprintln!("evaluation speedup: 10sp {small:.2}x, 60sp {large:.2}x");
    assert!(
        large > small * 0.8,
        "speedup should not collapse with species count: 10sp {small:.2}x vs 60sp {large:.2}x"
    );
    assert!(
        large > 1.2,
        "60-species evaluation speedup only {large:.2}x"
    );
}
