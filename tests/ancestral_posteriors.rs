//! Ancestral reconstruction posteriors: snapshots recorded before
//! reconstruction moved onto the likelihood evaluator, gated at 1e-12.
//!
//! Regenerate the snapshots after an *intentional* numerical change with:
//!
//! ```text
//! SLIM_GOLDEN_WRITE=1 cargo test --test ancestral_posteriors
//! ```
//!
//! The outside pass's own contracts follow the snapshots: columns stay
//! distributions on a tree deep enough to underflow a double, bits do not
//! depend on threads, pattern blocks or SIMD dispatch, and every engine
//! preset gives the same posteriors.

use slimcodeml::bio::{parse_newick, CodonAlignment, FreqModel, GeneticCode};
use slimcodeml::lik::ancestral::ancestral_reconstruction;
use slimcodeml::lik::{EngineConfig, LikelihoodProblem, SimdMode};
use slimcodeml::model::{BranchSiteModel, Hypothesis};
use slimcodeml::sim::{dataset, simulate_alignment, yule_tree, DatasetId};
use std::fmt::Write;
use std::path::PathBuf;

/// Largest absolute posterior difference a snapshot tolerates.
const POSTERIOR_GATE: f64 = 1e-12;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Write `text` as the snapshot `name` under `SLIM_GOLDEN_WRITE=1`, else
/// compare it with the snapshot token by token: numbers within
/// [`POSTERIOR_GATE`], everything else exactly.
fn check_snapshot(name: &str, text: &str) {
    let path = golden_path(name);
    if std::env::var("SLIM_GOLDEN_WRITE").is_ok_and(|v| v == "1") {
        std::fs::write(&path, text).unwrap();
        eprintln!("wrote {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with SLIM_GOLDEN_WRITE=1",
            path.display()
        )
    });
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (text.lines().collect(), golden.lines().collect());
    assert_eq!(got_lines.len(), want_lines.len(), "{name}: row count");
    for (row, (got, want)) in got_lines.iter().zip(&want_lines).enumerate() {
        let (g, w): (Vec<&str>, Vec<&str>) = (
            got.split_whitespace().collect(),
            want.split_whitespace().collect(),
        );
        assert_eq!(g.len(), w.len(), "{name} row {row}: field count");
        for (a, b) in g.iter().zip(&w) {
            match (a.parse::<f64>(), b.parse::<f64>()) {
                (Ok(x), Ok(y)) => assert!(
                    (x - y).abs() <= POSTERIOR_GATE,
                    "{name} row {row}: {x:e} vs snapshot {y:e}"
                ),
                _ => assert_eq!(a, b, "{name} row {row}"),
            }
        }
    }
}

/// The full posterior matrix of every internal node of the three-taxon
/// fixture of the `ancestral` unit tests: one row per (node, pattern),
/// all 61 states.
#[test]
fn three_taxon_posterior_matrices_match_snapshot() {
    let tree = parse_newick("((A:0.1,B:0.2)#1:0.05,C:0.3);").unwrap();
    let aln = CodonAlignment::from_fasta(">A\nATGCCCTTT\n>B\nATGCCATTT\n>C\nATGCCCTTC\n").unwrap();
    let code = GeneticCode::universal();
    let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::Equal).unwrap();
    let model = BranchSiteModel::default_start(Hypothesis::H1);
    let rec = ancestral_reconstruction(
        &problem,
        &EngineConfig::slim(),
        &model,
        &tree.branch_lengths(),
    )
    .unwrap();
    let mut text = String::new();
    for (node, post) in rec.posteriors.iter().enumerate() {
        let Some(post) = post else { continue };
        for p in 0..post.cols() {
            write!(text, "{node} {p}").unwrap();
            for s in 0..post.rows() {
                write!(text, " {:e}", post[(s, p)]).unwrap();
            }
            text.push('\n');
        }
    }
    check_snapshot("ancestral_three_taxon.txt", &text);
}

/// The most probable codon and its posterior at every internal node and
/// site of the simulated six-taxon fixture of
/// `extensions::ancestral_reconstruction_via_public_api`.
#[test]
fn public_api_fixture_best_codons_match_snapshot() {
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
    let mut text = String::new();
    for node in 0..problem.children.len() {
        if rec.posteriors[node].is_none() {
            continue;
        }
        for (site, r) in rec.most_probable_codons(node, &code).iter().enumerate() {
            writeln!(
                text,
                "{node} {site} {} {:e}",
                r.codon.to_string_repr(),
                r.posterior
            )
            .unwrap();
        }
    }
    check_snapshot("ancestral_public_api.txt", &text);
}

/// Every posterior column of every internal node.
fn columns(posteriors: &[Option<slimcodeml::linalg::Mat>]) -> impl Iterator<Item = Vec<f64>> + '_ {
    posteriors.iter().flatten().flat_map(|post| {
        (0..post.cols()).map(move |p| (0..post.rows()).map(|s| post[(s, p)]).collect())
    })
}

/// A 300-leaf caterpillar with branch lengths 0.5 and two codon columns:
/// every pattern's likelihood is far below the smallest normal double, so
/// only a rescaled outside pass keeps the posteriors alive.
#[test]
fn deep_caterpillar_posterior_columns_sum_to_one() {
    let n_leaves = 300;
    let mut newick = String::from("L0:0.5");
    for i in 1..n_leaves {
        newick = format!("({newick},L{i}:0.5):0.5");
    }
    let mut tree = parse_newick(&format!("{newick};")).unwrap();
    tree.set_foreground(tree.leaf_by_name("L0").unwrap())
        .unwrap();
    let codons = ["ATG", "CCC", "TTT", "GAA", "AAC", "TGG", "CAT"];
    let fasta: String = (0..n_leaves)
        .map(|i| format!(">L{i}\n{}{}\n", codons[i % 7], codons[(3 * i) % 7]))
        .collect();
    let aln = CodonAlignment::from_fasta(&fasta).unwrap();
    let code = GeneticCode::universal();
    let problem = LikelihoodProblem::new(&tree, &aln, &code, FreqModel::Equal).unwrap();
    let model = BranchSiteModel::default_start(Hypothesis::H1);
    let bl = vec![0.5; problem.n_branches()];
    let config = EngineConfig::slim();
    let value =
        slimcodeml::lik::site_class_log_likelihoods(&problem, &config, &model, &bl).unwrap();
    assert!(
        value
            .per_pattern
            .iter()
            .all(|&l| l.is_finite() && l < -708.0),
        "per-pattern lnL {:?}",
        value.per_pattern
    );
    let rec = ancestral_reconstruction(&problem, &config, &model, &bl).unwrap();
    let mut n_columns = 0;
    for (k, col) in columns(&rec.posteriors).enumerate() {
        let total: f64 = col.iter().sum();
        assert!((total - 1.0).abs() <= 1e-9, "column {k} sums to {total}");
        n_columns += 1;
    }
    assert_eq!(n_columns, (n_leaves - 1) * problem.n_patterns());
}

/// Posterior bits on every Table II analog are the same for every thread
/// count, pattern-block width and SIMD dispatch mode.
#[test]
fn posterior_bits_are_identical_across_threads_blocks_and_simd() {
    for id in DatasetId::ALL {
        let d = dataset(id);
        let code = GeneticCode::universal();
        let problem =
            LikelihoodProblem::new(&d.tree, &d.alignment, &code, FreqModel::F3x4).unwrap();
        let bl = d.tree.branch_lengths();
        let reconstruct = |config: &EngineConfig| {
            ancestral_reconstruction(&problem, config, &d.true_model, &bl).unwrap()
        };
        let reference = reconstruct(&EngineConfig::slim());
        for threads in [1, 4] {
            for block in [1, 2, 256] {
                for simd in [SimdMode::ForceScalar, SimdMode::Auto] {
                    let config = EngineConfig::slim()
                        .with_threads(threads)
                        .with_pattern_block(block)
                        .with_simd(simd);
                    let rec = reconstruct(&config);
                    for (k, (a, b)) in columns(&reference.posteriors)
                        .zip(columns(&rec.posteriors))
                        .enumerate()
                    {
                        assert!(
                            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                            "dataset {}: column {k} differs at threads {threads}, block {block}, {simd:?}",
                            id.label()
                        );
                    }
                }
            }
        }
    }
}

/// The four engine presets — Eq. 9 and Eq. 10 dense operators under
/// every CPV strategy, and the Eq. 12 symmetric operator — give the same
/// posteriors on every Table II analog within 1e-10.
#[test]
fn posteriors_agree_across_engine_presets() {
    for id in DatasetId::ALL {
        let d = dataset(id);
        let code = GeneticCode::universal();
        let problem =
            LikelihoodProblem::new(&d.tree, &d.alignment, &code, FreqModel::F3x4).unwrap();
        let bl = d.tree.branch_lengths();
        let reference =
            ancestral_reconstruction(&problem, &EngineConfig::slim(), &d.true_model, &bl).unwrap();
        for config in [
            EngineConfig::codeml_style(),
            EngineConfig::slim_plus(),
            EngineConfig::slim_symmetric(),
        ] {
            let rec = ancestral_reconstruction(&problem, &config, &d.true_model, &bl).unwrap();
            for (k, (a, b)) in columns(&reference.posteriors)
                .zip(columns(&rec.posteriors))
                .enumerate()
            {
                for (x, y) in a.iter().zip(&b) {
                    assert!(
                        (x - y).abs() <= 1e-10,
                        "dataset {} column {k}: {} {x:e} vs {y:e}",
                        id.label(),
                        config.label
                    );
                }
            }
        }
    }
}
