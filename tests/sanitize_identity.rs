//! The `sanitize` feature must never perturb numerics.
//!
//! The tripwires added behind `--features sanitize` only *read* values —
//! they assert invariants and abort on violation, but touch no arithmetic.
//! This test pins that contract the same way `metrics_identity` pins the
//! observability layer: exact lnL bit patterns on every Table II dataset
//! analog are snapshotted to a checked-in golden file, and the test
//! passes only on bit-for-bit equality. Running it under the default
//! feature set *and* under `--features sanitize` against the same golden
//! file proves both directions at once:
//!
//! * feature off — the tripwires compile to nothing (bits match the
//!   snapshot taken before they existed);
//! * feature on — every invariant check passes on valid inputs and the
//!   checked computation still produces the identical bits.
//!
//! The auxiliary models (M0, M2a and the two-ratio branch model) share
//! the pruning kernel, so their lnL bits at the generating parameters are
//! pinned in the same file, through both the dense (`slim`) and the
//! Eq. 12 symmetric (`eq12`) transition operators.
//!
//! The last rows run the bundled-`gemm` profile (`slim+`): the
//! branch-site model at both points, the H0 point (ω2 = 1, so the ω1 and
//! ω2 rate matrices coincide; also through `slim`), and M0, M1a, M2a and
//! two-ratio. Dataset ii has more patterns than one pruning block, so
//! its rows also cover a multi-block pass of every model.
//!
//! A second golden file pins the per-site outputs the lnL rows cannot
//! see: an FNV-1a hash of the bits of every per-class per-pattern
//! log-likelihood and of every NEB posterior, through all four engine
//! presets, at each analog's true, perturbed and H0 branch-site points
//! and at M2a with ω2 = 1 exactly (two classes over one ω matrix).
//!
//! Regenerate (only after an intentional numerical change, with the
//! default feature set) via:
//!
//! ```text
//! SLIM_GOLDEN_WRITE=1 cargo test --test sanitize_identity
//! ```

use slimcodeml::bio::{FreqModel, GeneticCode};
use slimcodeml::lik::branch_model::log_likelihood_branch;
use slimcodeml::lik::m0::log_likelihood_m0;
use slimcodeml::lik::site_models::site_model_log_likelihood;
use slimcodeml::lik::{
    log_likelihood, site_class_log_likelihoods, EngineConfig, LikelihoodProblem,
};
use slimcodeml::model::{BranchSiteModel, SiteModel, SitesHypothesis};
use slimcodeml::sim::{dataset, DatasetId};
use slimcodeml::stat::{class_posteriors, positive_selection_posteriors};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sanitize_lnl_bits.txt")
}

fn per_class_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sanitize_per_class_bits.txt")
}

fn writing() -> bool {
    std::env::var("SLIM_GOLDEN_WRITE").is_ok_and(|v| v == "1")
}

/// Same off-optimum perturbation the golden-value layer uses, so the
/// snapshot covers more of the likelihood surface than the optimum.
fn perturbed(m: &BranchSiteModel) -> BranchSiteModel {
    BranchSiteModel {
        kappa: m.kappa * 1.3,
        omega0: m.omega0 * 0.8,
        omega2: m.omega2 + 0.7,
        p0: m.p0 - 0.10,
        p1: m.p1 + 0.05,
    }
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

fn eval_bits(id: DatasetId, model: &BranchSiteModel, threads: usize) -> u64 {
    config_bits(id, &EngineConfig::slim().with_threads(threads), model)
}

fn config_bits(id: DatasetId, config: &EngineConfig, model: &BranchSiteModel) -> u64 {
    let bl = dataset(id).tree.branch_lengths();
    log_likelihood(&problem(id), config, model, &bl)
        .expect("likelihood evaluation")
        .to_bits()
}

/// M0, M2a and two-ratio lnL bits at the generating parameters, one
/// `(label, bits)` per model.
fn aux_bits(id: DatasetId, config: &EngineConfig) -> [(&'static str, u64); 3] {
    let p = problem(id);
    let m = dataset(id).true_model;
    let bl = dataset(id).tree.branch_lengths();
    let sites = SiteModel {
        kappa: m.kappa,
        omega0: m.omega0,
        omega2: m.omega2,
        p0: m.p0,
        p1: m.p1,
    };
    let m0 = log_likelihood_m0(&p, config, m.kappa, m.omega0, &bl).expect("M0 evaluation");
    let m2a = site_model_log_likelihood(&p, config, &sites, SitesHypothesis::M2a, &bl)
        .expect("M2a evaluation")
        .lnl;
    let two_ratio = log_likelihood_branch(&p, config, m.kappa, m.omega0, m.omega2, &bl)
        .expect("two-ratio evaluation");
    [
        ("m0", m0.to_bits()),
        ("m2a", m2a.to_bits()),
        ("two-ratio", two_ratio.to_bits()),
    ]
}

/// One line per case: `<dataset> <model> <threads> <lnl bits as hex>`.
/// Auxiliary-model rows follow the branch-site rows; their model label
/// carries an `.eq12` suffix for the symmetric operator and `.slim+` for
/// the bundled-`gemm` profile.
fn compute_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for id in DatasetId::ALL {
        let truth = dataset(id).true_model;
        for (label, model) in [("true", truth), ("perturbed", perturbed(&truth))] {
            for threads in [1usize, 2] {
                let bits = eval_bits(id, &model, threads);
                lines.push(format!("{} {label} {threads} {bits:016x}", id.label()));
            }
        }
    }
    for id in DatasetId::ALL {
        for (suffix, config) in [
            ("", EngineConfig::slim()),
            (".eq12", EngineConfig::slim_symmetric()),
        ] {
            for (label, bits) in aux_bits(id, &config) {
                lines.push(format!("{} {label}{suffix} 1 {bits:016x}", id.label()));
            }
        }
    }
    let plus = EngineConfig::slim_plus();
    for id in DatasetId::ALL {
        let truth = dataset(id).true_model;
        let h0 = BranchSiteModel {
            omega2: 1.0,
            ..truth
        };
        let rows = [
            ("true.slim+", config_bits(id, &plus, &truth)),
            (
                "perturbed.slim+",
                config_bits(id, &plus, &perturbed(&truth)),
            ),
            ("h0", config_bits(id, &EngineConfig::slim(), &h0)),
            ("h0.slim+", config_bits(id, &plus, &h0)),
        ];
        for (label, bits) in rows {
            lines.push(format!("{} {label} 1 {bits:016x}", id.label()));
        }
        for (label, bits) in aux_bits(id, &plus) {
            lines.push(format!("{} {label}.slim+ 1 {bits:016x}", id.label()));
        }
        lines.push(format!(
            "{} m1a.slim+ 1 {:016x}",
            id.label(),
            m1a_bits(id, &plus)
        ));
    }
    lines
}

/// M1a lnL bits at the generating (κ, ω0, p0).
fn m1a_bits(id: DatasetId, config: &EngineConfig) -> u64 {
    let m = dataset(id).true_model;
    let sites = SiteModel {
        kappa: m.kappa,
        omega0: m.omega0,
        omega2: 1.0,
        p0: m.p0,
        p1: m.p1,
    };
    let bl = dataset(id).tree.branch_lengths();
    site_model_log_likelihood(&problem(id), config, &sites, SitesHypothesis::M1a, &bl)
        .expect("M1a evaluation")
        .lnl
        .to_bits()
}

/// FNV-1a (64-bit) over the little-endian bits of `values`, in order.
fn fnv1a<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One line per case: `<dataset> <point> <preset> <per-class hash>
/// <NEB hash>`. Branch-site rows hash `positive_selection_posteriors`;
/// the M2a rows hash every class posterior, pattern-major.
fn per_class_lines() -> Vec<String> {
    let presets = [
        ("slim", EngineConfig::slim()),
        ("slim+", EngineConfig::slim_plus()),
        ("eq12", EngineConfig::slim_symmetric()),
        ("codeml", EngineConfig::codeml_style()),
    ];
    let mut lines = Vec::new();
    for id in DatasetId::ALL {
        let p = problem(id);
        let bl = dataset(id).tree.branch_lengths();
        let truth = dataset(id).true_model;
        let h0 = BranchSiteModel {
            omega2: 1.0,
            ..truth
        };
        let m2a = SiteModel {
            kappa: truth.kappa,
            omega0: truth.omega0,
            omega2: 1.0,
            p0: truth.p0,
            p1: truth.p1,
        };
        for (preset, config) in &presets {
            for (point, model) in [
                ("true", truth),
                ("perturbed", perturbed(&truth)),
                ("h0", h0),
            ] {
                let v = site_class_log_likelihoods(&p, config, &model, &bl)
                    .expect("branch-site evaluation");
                let neb = positive_selection_posteriors(&v.per_class, &v.proportions);
                lines.push(format!(
                    "{} {point} {preset} {:016x} {:016x}",
                    id.label(),
                    fnv1a(v.per_class.iter().flatten()),
                    fnv1a(&neb)
                ));
            }
            let v = site_model_log_likelihood(&p, config, &m2a, SitesHypothesis::M2a, &bl)
                .expect("M2a evaluation");
            let neb = class_posteriors(&v.per_class, &v.proportions);
            lines.push(format!(
                "{} m2a.omega2=1 {preset} {:016x} {:016x}",
                id.label(),
                fnv1a(v.per_class.iter().flatten()),
                fnv1a(neb.iter().flatten())
            ));
        }
    }
    lines
}

/// Compare `lines` with the golden file at `path` line by line, or write
/// it under `SLIM_GOLDEN_WRITE=1`.
fn check_golden(path: &std::path::Path, lines: &[String], what: &str) {
    if writing() {
        std::fs::write(path, format!("{}\n", lines.join("\n"))).unwrap();
        eprintln!("wrote {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with SLIM_GOLDEN_WRITE=1",
            path.display()
        )
    });
    let golden: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(golden.len(), lines.len(), "golden case count drifted");
    for (want, got) in golden.iter().zip(lines) {
        assert_eq!(
            *want, got,
            "{what} bits drifted (golden `{want}` vs computed `{got}`); if the \
             sanitize feature is on, it has perturbed the numerics"
        );
    }
}

#[test]
fn lnl_bits_match_golden_regardless_of_sanitize_feature() {
    check_golden(&golden_path(), &compute_lines(), "lnL");
}

#[test]
fn per_class_and_neb_bits_match_golden_regardless_of_sanitize_feature() {
    check_golden(
        &per_class_golden_path(),
        &per_class_lines(),
        "per-class or NEB",
    );
}
