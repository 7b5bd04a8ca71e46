//! Ablation study: which of the paper's optimizations buys what.
//!
//! Times a full likelihood evaluation (the §III pipeline end to end) on a
//! dataset-iii-shaped problem while toggling one knob at a time:
//!
//! 1. expm path: Eq. 9 naive → Eq. 9 blocked gemm → Eq. 10 syrk;
//! 2. CPV strategy: naive per-site → gemv per-site → bundled gemm →
//!    Eq. 12 symmetric symv (the naive row also prunes every site class
//!    on its own, as the codeml-style preset does; every other row
//!    shares pruning between classes with one background ω);
//! 3. eigensolver: tuned Householder+QL vs the scalar `tred2`/`tql2`
//!    CodeML runs (same bits) vs bisection+inverse-iteration (`dsyevr`'s
//!    MRRR stand-in) vs Jacobi.
//!
//! ```text
//! cargo run --release -p slim-bench --bin ablation [--quick]
//! ```

use slim_bio::GeneticCode;
use slim_expm::CpvStrategy;
use slim_lik::{log_likelihood, EngineConfig, ExpmPath, LikelihoodProblem};
use slim_linalg::EigenMethod;
use slim_model::{BranchSiteModel, Hypothesis};
use slim_sim::{dataset, DatasetId};
use std::time::Instant;

fn time_eval(
    problem: &LikelihoodProblem,
    config: &EngineConfig,
    model: &BranchSiteModel,
    bl: &[f64],
    reps: usize,
) -> (f64, f64) {
    // Warm once.
    let lnl = log_likelihood(problem, config, model, bl).expect("likelihood");
    let start = Instant::now();
    for _ in 0..reps {
        let _ = log_likelihood(problem, config, model, bl).expect("likelihood");
    }
    (start.elapsed().as_secs_f64() / reps as f64 * 1e3, lnl)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 10 };

    let ds = dataset(DatasetId::III);
    let code = GeneticCode::universal();
    let problem = LikelihoodProblem::new(&ds.tree, &ds.alignment, &code, slim_bio::FreqModel::F3x4)
        .expect("problem");
    let model = BranchSiteModel::default_start(Hypothesis::H1);
    let bl = ds.tree.branch_lengths();

    println!(
        "Ablation on dataset iii shape ({} species × {} codons, {} patterns, {} branches); ms per likelihood evaluation",
        ds.alignment.n_sequences(),
        ds.alignment.n_codons(),
        problem.n_patterns(),
        problem.n_branches()
    );
    println!();

    println!("1. expm path (CPV fixed at per-site gemv):");
    for (label, path) in [
        ("Eq. 9, naive kernels (CodeML)", ExpmPath::Eq9Naive),
        ("Eq. 9, blocked gemm", ExpmPath::Eq9Tuned),
        ("Eq. 10, syrk (SlimCodeML)", ExpmPath::Eq10Syrk),
    ] {
        let mut cfg = EngineConfig::slim();
        cfg.expm = path;
        let (ms, lnl) = time_eval(&problem, &cfg, &model, &bl, reps);
        println!("   {label:<36} {ms:>9.2} ms   (lnL {lnl:.6})");
    }

    println!();
    println!("2. CPV strategy (expm fixed at Eq. 10):");
    for (label, cpv) in [
        ("naive per-site matvec (CodeML)", CpvStrategy::NaivePerSite),
        (
            "per-site gemv (paper's SlimCodeML)",
            CpvStrategy::PerSiteGemv,
        ),
        (
            "bundled gemm over sites (SS III-B)",
            CpvStrategy::BundledGemm,
        ),
        ("Eq. 12 symmetric symv", CpvStrategy::SymmetricSymv),
    ] {
        let cfg = EngineConfig::slim().with_cpv(cpv);
        let (ms, lnl) = time_eval(&problem, &cfg, &model, &bl, reps);
        println!("   {label:<36} {ms:>9.2} ms   (lnL {lnl:.6})");
    }

    println!();
    println!("2b. parallel site classes (SS V-B FastCodeML direction):");
    for (label, cfg) in [
        ("serial classes", EngineConfig::slim()),
        (
            "4 threads (crossbeam scope)",
            EngineConfig::slim().with_threads(4),
        ),
    ] {
        let (ms, lnl) = time_eval(&problem, &cfg, &model, &bl, reps);
        println!("   {label:<36} {ms:>9.2} ms   (lnL {lnl:.6})");
    }

    println!();
    println!("3. symmetric eigensolver (full Slim config):");
    for (label, method) in [
        ("Householder + implicit QL", EigenMethod::HouseholderQl),
        (
            "scalar tred2 + tql2 (CodeML)",
            EigenMethod::HouseholderQlNaive,
        ),
        (
            "bisection + inverse iteration",
            EigenMethod::BisectionInverse,
        ),
        ("cyclic Jacobi", EigenMethod::Jacobi),
    ] {
        let cfg = EngineConfig::slim().with_eigen(method);
        let (ms, lnl) = time_eval(&problem, &cfg, &model, &bl, reps);
        println!("   {label:<36} {ms:>9.2} ms   (lnL {lnl:.6})");
    }
}
