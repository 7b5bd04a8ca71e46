//! Intra-gene scaling of the `slim-par` likelihood engine: evaluate the
//! branch-site likelihood of all four Table II dataset analogs at
//! 1/2/4/8 threads and emit `BENCH_par.json` with wall time, per-phase
//! breakdown (read back as `lik.phase.*_seconds` registry deltas), and
//! speedup per thread count. Each dataset also gets a
//! short slim+ H1 fit whose optimizer counters (read back through the
//! `slim-obs` registry) land in the JSON, and the final registry
//! snapshot is written to
//! `BENCH_metrics.json`.
//!
//! The sweep also cross-checks the determinism contract: every thread
//! count must produce the *bit-identical* log-likelihood (threads only
//! move fixed pattern blocks between workers; the reduction is serial and
//! compensated). The report records `available_cores` — on machines with
//! fewer cores than threads the extra threads time-slice one core, so
//! measured speedups above that count are meaningless and honest numbers
//! require reading that field.
//!
//! ```text
//! cargo run --release -p slim-bench --bin par_scaling [--quick]
//! ```

use slim_bio::FreqModel;
use slim_core::{Analysis, AnalysisOptions, Backend, Hypothesis};
use slim_lik::{site_class_log_likelihoods, EngineConfig, LikelihoodProblem};
use slim_sim::{dataset, DatasetId};
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Seconds the `lik.phase.{eigen,expm,pruning,reduction}_seconds`
/// histograms have accumulated so far.
fn phase_seconds() -> [f64; 4] {
    let snap = slim_obs::snapshot();
    ["eigen", "expm", "pruning", "reduction"].map(|p| {
        let name = format!("lik.phase.{p}_seconds");
        snap.histogram(&name).map_or(0.0, |h| h.sum_seconds)
    })
}

/// A short slim+ H1 fit; returns the JSON fragment with optimizer
/// counters, read back as `slim-obs` registry deltas (the bench is
/// single-threaded, so deltas are exact).
fn fit_counters(d: &slim_sim::SimulatedDataset, quick: bool) -> String {
    let before = slim_obs::snapshot();
    let started = Instant::now();
    let options = AnalysisOptions {
        backend: Backend::SlimPlus,
        max_iterations: if quick { 2 } else { 6 },
        seed: 11,
        ..AnalysisOptions::default()
    };
    let analysis =
        Analysis::new(&d.tree, &d.alignment, options).expect("preset dataset is well-formed");
    let fit = analysis.fit(Hypothesis::H1).expect("H1 fit");
    let wall = started.elapsed().as_secs_f64();
    let after = slim_obs::snapshot();
    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    assert!(fit.lnl.is_finite(), "fit must produce a finite lnL");
    format!(
        r#"{{"backend":"slim+","wall_seconds":{wall:.6},"iterations":{},"f_evals":{},"grad_evals":{},"line_search_steps":{}}}"#,
        delta("opt.iterations"),
        delta("opt.f_evals"),
        delta("opt.grad_evals"),
        delta("opt.line_search_steps"),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    // Collect registry metrics for the whole sweep; handles register
    // lazily at first recording, so no eager registration is needed.
    slim_obs::set_enabled(true);
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    println!(
        "par scaling — slim-par engine, {reps} rep{}/point, {cores} core{} available{}",
        if reps == 1 { "" } else { "s" },
        if cores == 1 { "" } else { "s" },
        if quick { ", quick" } else { "" }
    );
    println!(
        "{:>8} {:>8} {:>12} {:>9}  {:>9} {:>9} {:>9} {:>9}",
        "dataset", "threads", "wall (s)", "speedup", "eigen", "expm", "prune", "reduce"
    );

    let mut dataset_rows = Vec::new();
    for id in DatasetId::ALL {
        let d = dataset(id);
        let problem = LikelihoodProblem::new(
            &d.tree,
            &d.alignment,
            &slim_bio::GeneticCode::universal(),
            FreqModel::F3x4,
        )
        .expect("preset dataset is well-formed");
        let bl = d.tree.branch_lengths();
        let model = d.true_model;
        let (species, codons) = id.shape();

        let mut rows = Vec::new();
        let mut baseline_secs = 0.0f64;
        let mut baseline_bits: Option<u64> = None;
        for &threads in &THREAD_COUNTS {
            let config = EngineConfig::slim().with_threads(threads);
            // Warmup: touch every allocation and code path once.
            let value = site_class_log_likelihoods(&problem, &config, &model, &bl)
                .expect("likelihood evaluation");
            match baseline_bits {
                None => baseline_bits = Some(value.lnl.to_bits()),
                Some(bits) => assert_eq!(
                    bits,
                    value.lnl.to_bits(),
                    "determinism violated on dataset {}: {threads}-thread lnL differs from 1-thread",
                    id.label()
                ),
            }

            // Best-of-reps wall time with per-phase breakdown.
            let mut best = f64::INFINITY;
            let mut best_timing = [0.0f64; 4];
            for _ in 0..reps {
                let before = phase_seconds();
                let started = Instant::now();
                let v = site_class_log_likelihoods(&problem, &config, &model, &bl)
                    .expect("likelihood evaluation");
                let wall = started.elapsed().as_secs_f64();
                let after = phase_seconds();
                let timing: [f64; 4] = std::array::from_fn(|i| after[i] - before[i]);
                assert_eq!(
                    v.lnl.to_bits(),
                    baseline_bits.expect("baseline recorded"),
                    "determinism violated within the timing loop"
                );
                if wall < best {
                    best = wall;
                    best_timing = timing;
                }
            }
            if threads == 1 {
                baseline_secs = best;
            }
            let speedup = baseline_secs / best;
            println!(
                "{:>8} {:>8} {:>12.4} {:>9.2}  {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
                id.label(),
                threads,
                best,
                speedup,
                best_timing[0],
                best_timing[1],
                best_timing[2],
                best_timing[3],
            );
            rows.push(format!(
                r#"{{"threads":{threads},"wall_seconds":{best:.6},"speedup":{speedup:.4},"eigen_seconds":{:.6},"expm_seconds":{:.6},"pruning_seconds":{:.6},"reduction_seconds":{:.6}}}"#,
                best_timing[0],
                best_timing[1],
                best_timing[2],
                best_timing[3],
            ));
        }
        let fit = fit_counters(&d, quick);
        dataset_rows.push(format!(
            r#"{{"dataset":"{}","species":{species},"codons":{codons},"patterns":{},"lnl_bits_identical":true,"fit":{fit},"runs":[{}]}}"#,
            id.label(),
            problem.n_patterns(),
            rows.join(",")
        ));
    }

    let json = format!(
        r#"{{"bench":"par_scaling","engine":"slim-par","available_cores":{cores},"reps":{reps},"quick":{quick},"datasets":[{}]}}
"#,
        dataset_rows.join(",")
    );
    std::fs::write("BENCH_par.json", &json).expect("cannot write BENCH_par.json");
    std::fs::write("BENCH_metrics.json", slim_obs::snapshot().to_json())
        .expect("cannot write BENCH_metrics.json");
    println!("\nwrote BENCH_par.json, BENCH_metrics.json");
}
