//! Observability must never perturb numerics.
//!
//! The `slim-obs` layer promises that turning metric collection on or
//! off changes *no* computed value: recording happens strictly outside
//! the arithmetic (wall-clock reads and atomic bumps around, never
//! inside, the likelihood kernels). These tests pin that contract at
//! two levels: the raw parallel likelihood engine on every Table II
//! dataset analog, and a whole H0 fit through the cached `slim+`
//! backend — each bit-compared between a metrics-off and a metrics-on
//! evaluation of the same inputs.

use slimcodeml::bio::FreqModel;
use slimcodeml::core::{Analysis, AnalysisOptions, Backend, Hypothesis};
use slimcodeml::lik::{site_class_log_likelihoods, EngineConfig, LikelihoodProblem};
use slimcodeml::sim::{dataset, DatasetId};
use std::sync::Mutex;

/// Both tests toggle the process-global enable flag; serialize them so
/// one test's toggling cannot blank the other's metrics-on window.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Engine lnL with metrics enabled vs disabled on every Table II
/// analog: identical to the last bit, for the total and every
/// per-pattern and per-class value.
#[test]
fn engine_lnl_bits_are_unchanged_by_metrics() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for id in DatasetId::ALL {
        let d = dataset(id);
        let problem = LikelihoodProblem::new(
            &d.tree,
            &d.alignment,
            &slimcodeml::bio::GeneticCode::universal(),
            FreqModel::F3x4,
        )
        .expect("preset dataset is well-formed");
        let bl = d.tree.branch_lengths();
        let model = d.true_model;
        let config = EngineConfig::slim().with_threads(2);

        slimcodeml::obs::set_enabled(false);
        let off = site_class_log_likelihoods(&problem, &config, &model, &bl)
            .expect("metrics-off evaluation");

        slimcodeml::obs::set_enabled(true);
        slimcodeml::lik::register_metrics();
        let on = site_class_log_likelihoods(&problem, &config, &model, &bl)
            .expect("metrics-on evaluation");
        slimcodeml::obs::set_enabled(false);

        assert_eq!(
            off.lnl.to_bits(),
            on.lnl.to_bits(),
            "dataset {}: lnL with metrics on ({}) differs from off ({})",
            id.label(),
            on.lnl,
            off.lnl
        );
        for (p, (a, b)) in off.per_pattern.iter().zip(&on.per_pattern).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "dataset {}: per-pattern {p} differs with metrics on",
                id.label()
            );
        }
        for (c, (a, b)) in off.per_class.iter().zip(&on.per_class).enumerate() {
            for (p, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "dataset {}: class {c} pattern {p} differs with metrics on",
                    id.label()
                );
            }
        }
    }
}

/// A full H0 fit through the `slim+` backend: every fitted
/// quantity bit-identical with metrics on vs off, and the metrics-on
/// pass actually recorded (the test would be vacuous against a
/// permanently-disabled registry).
#[test]
fn fit_bits_are_unchanged_by_metrics_and_registry_records() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tree = slimcodeml::bio::parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
    let aln = slimcodeml::bio::CodonAlignment::from_fasta(
        ">A\nATGCCCAAATGGTTT\n>B\nATGCCAAAATGGTTC\n>C\nATGCCCAAATGGTTT\n",
    )
    .unwrap();
    let options = AnalysisOptions {
        backend: Backend::SlimPlus,
        max_iterations: 12,
        seed: 7,
        threads: Some(2),
        ..AnalysisOptions::default()
    };

    slimcodeml::obs::set_enabled(false);
    let off = Analysis::new(&tree, &aln, options.clone())
        .unwrap()
        .fit(Hypothesis::H0)
        .expect("metrics-off fit");

    slimcodeml::obs::set_enabled(true);
    slimcodeml::opt::register_metrics();
    slimcodeml::lik::register_metrics();
    let before = slimcodeml::obs::snapshot();
    let on = Analysis::new(&tree, &aln, options)
        .unwrap()
        .fit(Hypothesis::H0)
        .expect("metrics-on fit");
    let after = slimcodeml::obs::snapshot();
    slimcodeml::obs::set_enabled(false);

    assert_eq!(off.lnl.to_bits(), on.lnl.to_bits(), "lnL changed");
    assert_eq!(off.iterations, on.iterations, "iteration count changed");
    for (label, a, b) in [
        ("kappa", off.model.kappa, on.model.kappa),
        ("omega0", off.model.omega0, on.model.omega0),
        ("p0", off.model.p0, on.model.p0),
        ("p1", off.model.p1, on.model.p1),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{label} changed with metrics on");
    }
    for (i, (a, b)) in off
        .branch_lengths
        .iter()
        .zip(&on.branch_lengths)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "branch length {i} changed with metrics on"
        );
    }

    // Sanity: the instrumented layers really recorded during the
    // metrics-on fit (deltas, because the registry is process-global
    // and other tests may run concurrently).
    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    assert!(delta("lik.evaluations") > 0, "lik layer did not record");
    assert!(delta("opt.iterations") > 0, "opt layer did not record");
    // perfbench reads these counters by name; one it cannot find prints
    // as null on its result line.
    for name in [
        "opt.iterations",
        "opt.f_evals",
        "opt.line_search_steps",
        "lik.reuse.units_reused",
        "lik.reuse.units_recomputed",
    ] {
        assert!(after.counter(name).is_some(), "{name} is not registered");
    }
    assert!(
        delta("lik.reuse.units_reused") > 0,
        "the fit's start point is a repeat, served from the kept state"
    );
    assert!(
        delta("lik.reuse.units_recomputed") > 0,
        "every evaluation but the repeat computes its CPV blocks"
    );
    // The fit fed the span histograms `--timing` reads.
    let observations = |name: &str| {
        let count = |s: &slimcodeml::obs::Snapshot| s.histogram(name).map_or(0, |h| h.count);
        count(&after).saturating_sub(count(&before))
    };
    for name in [
        "lik.phase.eigen_seconds",
        "lik.phase.expm_seconds",
        "lik.phase.pruning_seconds",
        "lik.phase.reduction_seconds",
        "opt.fit_seconds",
    ] {
        assert!(observations(name) > 0, "{name} did not record");
    }
}

/// Whole positive-selection tests: lnL bits unchanged by metrics, every
/// fit counted under exactly one `opt.termination.*` reason, and every
/// test under exactly one `core.h1.*` outcome.
#[test]
fn tests_count_termination_reasons_and_h1_outcomes() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tree = slimcodeml::bio::parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
    let aln = slimcodeml::bio::CodonAlignment::from_fasta(
        ">A\nATGCCCAAATGGTTT\n>B\nATGCCAAAATGGTTC\n>C\nATGCCCAAATGGTTT\n",
    )
    .unwrap();
    let seeds = [7u64, 8];
    let run = |seed: u64| {
        let options = AnalysisOptions {
            max_iterations: 12,
            seed,
            ..AnalysisOptions::default()
        };
        Analysis::new(&tree, &aln, options)
            .unwrap()
            .test_positive_selection()
            .expect("positive-selection test")
    };

    slimcodeml::obs::set_enabled(false);
    let off: Vec<_> = seeds.iter().map(|&s| run(s)).collect();

    slimcodeml::obs::set_enabled(true);
    slimcodeml::opt::register_metrics();
    slimcodeml::core::register_metrics();
    let before = slimcodeml::obs::snapshot();
    let on: Vec<_> = seeds.iter().map(|&s| run(s)).collect();
    let after = slimcodeml::obs::snapshot();
    slimcodeml::obs::set_enabled(false);

    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.h0.lnl.to_bits(), b.h0.lnl.to_bits(), "H0 lnL changed");
        assert_eq!(a.h1.lnl.to_bits(), b.h1.lnl.to_bits(), "H1 lnL changed");
    }
    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    let sum = |prefix: &str| -> u64 {
        after
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(n, _)| delta(n))
            .sum()
    };
    assert!(delta("opt.fits") >= 2 * seeds.len() as u64);
    assert_eq!(sum("opt.termination."), delta("opt.fits"));
    assert_eq!(sum("core.h1."), seeds.len() as u64);
}

/// An exact gradient reads the point its fit just evaluated from the
/// kept state, so `lik.evaluations` counts only the fit's own objective
/// evaluations — BFGS's, plus the one check of the starting point per
/// fit — and no gradient.
#[test]
fn exact_gradients_add_no_likelihood_evaluations() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tree = slimcodeml::bio::parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
    let aln = slimcodeml::bio::CodonAlignment::from_fasta(
        ">A\nATGCCCAAATGGTTT\n>B\nATGCCAAAATGGTTC\n>C\nATGCCCAAATGGTTT\n",
    )
    .unwrap();
    for backend in [Backend::SlimPlus, Backend::CodeMlStyle] {
        let options = AnalysisOptions {
            backend,
            max_iterations: 12,
            seed: 7,
            ..AnalysisOptions::default()
        };
        let analysis = Analysis::new(&tree, &aln, options).unwrap();

        slimcodeml::obs::set_enabled(true);
        slimcodeml::opt::register_metrics();
        slimcodeml::lik::register_metrics();
        let before = slimcodeml::obs::snapshot();
        analysis.fit(Hypothesis::H1).expect("H1 fit");
        let after = slimcodeml::obs::snapshot();
        slimcodeml::obs::set_enabled(false);

        let delta = |name: &str| {
            after
                .counter(name)
                .unwrap_or(0)
                .saturating_sub(before.counter(name).unwrap_or(0))
        };
        assert!(
            delta("opt.grad_evals") > 0,
            "{backend:?}: no gradient taken"
        );
        assert_eq!(
            delta("lik.evaluations"),
            delta("opt.f_evals") + delta("opt.fits"),
            "{backend:?}: gradients counted as evaluations"
        );
    }
}
