//! Integration tests for the beyond-the-paper extensions: sites test,
//! ancestral reconstruction, BEB, M0/two-ratio models, parallel backend,
//! missing data through the full public API.

use slimcodeml::bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode};
use slimcodeml::core::{
    sites_test, Analysis, AnalysisOptions, Backend, BebOptions, BranchSiteModel, Hypothesis,
    SitesHypothesis,
};
use slimcodeml::lik::ancestral::ancestral_reconstruction;
use slimcodeml::lik::{branch_model, m0, EngineConfig, LikelihoodProblem};
use slimcodeml::opt::GradMode;
use slimcodeml::sim::{simulate_alignment, yule_tree};

fn quick(backend: Backend) -> AnalysisOptions {
    AnalysisOptions {
        backend,
        max_iterations: 25,
        grad_mode: GradMode::Forward,
        ..Default::default()
    }
}

#[test]
fn sites_test_detects_pervasive_selection() {
    // ω2 > 1 on every branch: simulate by making the "foreground" ω apply
    // to a branch-site foreground covering the longest branch AND using a
    // high neutral proportion — the sites test should at least rank the
    // selection dataset above the purifying one.
    let tree = yule_tree(5, 0.3, 3);
    let pi = vec![1.0 / 61.0; 61];
    let sel = simulate_alignment(
        &tree,
        &BranchSiteModel {
            kappa: 2.0,
            omega0: 0.9,
            omega2: 1.0,
            p0: 0.9,
            p1: 0.05,
        },
        &pi,
        200,
        5,
    );
    let pur = simulate_alignment(
        &tree,
        &BranchSiteModel {
            kappa: 2.0,
            omega0: 0.05,
            omega2: 1.0,
            p0: 0.95,
            p1: 0.04,
        },
        &pi,
        200,
        6,
    );
    let r_sel = sites_test(&tree, &sel, &quick(Backend::SlimPlus)).unwrap();
    let r_pur = sites_test(&tree, &pur, &quick(Backend::SlimPlus)).unwrap();
    // The purifying dataset must show a smaller *effective* ω under M1a
    // (p0·ω0 + (1−p0)·1); the raw ω0 alone can be weakly identified when
    // the optimizer trades it against p0.
    let eff = |m: &slimcodeml::core::SiteModel| m.p0 * m.omega0 + (1.0 - m.p0);
    assert!(
        eff(&r_pur.m1a.model) < eff(&r_sel.m1a.model),
        "purifying effective w {} vs near-neutral {}",
        eff(&r_pur.m1a.model),
        eff(&r_sel.m1a.model)
    );
    for r in [&r_sel, &r_pur] {
        assert!(r.p_value > 0.0 && r.p_value <= 1.0);
        assert!(r.m1a.model.is_valid(SitesHypothesis::M1a));
        assert!(r.m2a.model.is_valid(SitesHypothesis::M2a));
    }
}

#[test]
fn ancestral_reconstruction_via_public_api() {
    let tree = yule_tree(6, 0.1, 9);
    let truth = BranchSiteModel::default_start(Hypothesis::H1);
    let pi = vec![1.0 / 61.0; 61];
    let aln = simulate_alignment(&tree, &truth, &pi, 40, 2);
    let code = GeneticCode::universal();
    let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap();
    let rec = ancestral_reconstruction(
        &problem,
        &EngineConfig::slim(),
        &truth,
        &tree.branch_lengths(),
    )
    .unwrap();
    let root_best = rec.most_probable_codons(problem.root, &code);
    assert_eq!(root_best.len(), 40);
    // With modest branch lengths the reconstruction should be confident
    // at most sites.
    let confident = root_best.iter().filter(|r| r.posterior > 0.9).count();
    assert!(confident > 20, "only {confident}/40 confident sites");
}

#[test]
fn beb_and_neb_agree_qualitatively() {
    let mut tree = yule_tree(6, 0.25, 17);
    let longest = tree
        .branch_nodes()
        .into_iter()
        .max_by(|a, b| {
            tree.node(*a)
                .branch_length
                .partial_cmp(&tree.node(*b).branch_length)
                .unwrap()
        })
        .unwrap();
    tree.set_foreground(longest).unwrap();
    let truth = BranchSiteModel {
        kappa: 2.0,
        omega0: 0.1,
        omega2: 8.0,
        p0: 0.45,
        p1: 0.2,
    };
    let pi = vec![1.0 / 61.0; 61];
    let aln = simulate_alignment(&tree, &truth, &pi, 150, 99);

    let analysis = Analysis::new(&tree, &aln, quick(Backend::SlimPlus)).unwrap();
    let result = analysis.test_positive_selection().unwrap();
    let beb = analysis
        .beb_site_posteriors(
            &result.h1,
            &BebOptions {
                n_omega0: 2,
                n_omega2: 3,
                n_props: 2,
                omega2_max: 10.0,
            },
        )
        .unwrap();
    assert_eq!(beb.len(), result.site_posteriors.len());
    // Sites NEB ranks highest should rank high under BEB too (rank
    // correlation proxy: the top NEB site is in BEB's top quartile).
    let top_neb = result
        .site_posteriors
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    let mut beb_sorted: Vec<f64> = beb.clone();
    beb_sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let quartile = beb_sorted[beb_sorted.len() / 4];
    assert!(
        beb[top_neb] >= quartile,
        "top NEB site {top_neb} has BEB {} below quartile {quartile}",
        beb[top_neb]
    );
}

#[test]
fn m0_and_two_ratio_nested_ordering() {
    let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
    let aln = CodonAlignment::from_fasta(
        ">A\nATGCCCAAATTTGGG\n>B\nATGCCAAAATTTGGA\n>C\nATGCCCAAGTTCGGG\n",
    )
    .unwrap();
    let code = GeneticCode::universal();
    let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::F3x4).unwrap();
    let bl = tree.branch_lengths();
    let cfg = EngineConfig::slim();
    // Evaluate both models on a small omega grid; the two-ratio model's
    // best must be >= M0's best (it nests M0).
    let mut best_m0 = f64::NEG_INFINITY;
    let mut best_two = f64::NEG_INFINITY;
    for w_bg in [0.1, 0.3, 0.8] {
        best_m0 = best_m0.max(m0::log_likelihood_m0(&problem, &cfg, 2.0, w_bg, &bl).unwrap());
        for w_fg in [0.1, 0.3, 0.8, 2.0] {
            best_two = best_two.max(
                branch_model::log_likelihood_branch(&problem, &cfg, 2.0, w_bg, w_fg, &bl).unwrap(),
            );
        }
    }
    assert!(
        best_two >= best_m0 - 1e-12,
        "two-ratio {best_two} vs M0 {best_m0}"
    );
}

#[test]
fn parallel_backend_end_to_end() {
    let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
    let aln = CodonAlignment::from_fasta(">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n").unwrap();
    let serial = Analysis::new(&tree, &aln, quick(Backend::Slim))
        .unwrap()
        .fit(Hypothesis::H0)
        .unwrap();
    let auto_threads = AnalysisOptions {
        threads: Some(0),
        ..quick(Backend::Slim)
    };
    let parallel = Analysis::new(&tree, &aln, auto_threads)
        .unwrap()
        .fit(Hypothesis::H0)
        .unwrap();
    assert!(
        (serial.lnl - parallel.lnl).abs() < 1e-6,
        "serial {} vs parallel {}",
        serial.lnl,
        parallel.lnl
    );
}

#[test]
fn missing_data_through_full_fit() {
    let tree = parse_newick("((A:0.2,B:0.2)#1:0.1,C:0.3);").unwrap();
    let aln = CodonAlignment::from_fasta(">A\nATGCCCAAA---\n>B\nATG---AAATTT\n>C\nATGCCCNNNTTT\n")
        .unwrap();
    assert!(aln.missing_fraction() > 0.0);
    let analysis = Analysis::new(&tree, &aln, quick(Backend::Slim)).unwrap();
    let fit = analysis.fit(Hypothesis::H0).unwrap();
    assert!(fit.lnl.is_finite() && fit.lnl < 0.0);
}
