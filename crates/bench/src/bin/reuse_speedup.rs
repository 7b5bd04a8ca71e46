//! Cross-evaluation partial-likelihood reuse: run the full H0+H1
//! positive-selection test on Table II dataset analogs with reuse on and
//! off and emit `BENCH_reuse.json` with wall times, speedups, and the
//! reuse counters (`lik.reuse.*`, read back as `slim-obs` registry
//! deltas).
//!
//! The bench also enforces the contract the speedup rests on: with reuse
//! the optimizer walks the *bit-identical* trajectory, so final H0 and
//! H1 log-likelihoods, iteration counts, and evaluation counts must all
//! match the reuse-off run exactly — any divergence aborts the bench.
//!
//! ```text
//! cargo run --release -p slim-bench --bin reuse_speedup [--quick]
//! ```

use slim_core::{Analysis, AnalysisOptions, Backend, TestResult};
use slim_sim::{dataset, DatasetId};
use std::time::Instant;

/// One timed H0+H1 test with explicit reuse setting; returns the result,
/// wall seconds, and the `lik.reuse.*` counter deltas as a JSON object.
fn run(d: &slim_sim::SimulatedDataset, quick: bool, reuse: bool) -> (TestResult, f64, String) {
    let before = slim_obs::snapshot();
    let options = AnalysisOptions {
        backend: Backend::SlimPlus,
        max_iterations: if quick { 4 } else { 30 },
        seed: 17,
        reuse: Some(reuse),
        ..AnalysisOptions::default()
    };
    let analysis =
        Analysis::new(&d.tree, &d.alignment, options).expect("preset dataset is well-formed");
    let started = Instant::now();
    let result = analysis
        .test_positive_selection()
        .expect("H0+H1 test on preset dataset");
    let wall = started.elapsed().as_secs_f64();
    let after = slim_obs::snapshot();
    let delta = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(before.counter(name).unwrap_or(0))
    };
    let reused = delta("lik.reuse.units_reused");
    let recomputed = delta("lik.reuse.units_recomputed");
    let hit_rate = if reused + recomputed > 0 {
        reused as f64 / (reused + recomputed) as f64
    } else {
        0.0
    };
    let counters = format!(
        r#"{{"evaluations":{},"full_invalidations":{},"dirty_branches":{},"units_reused":{reused},"units_recomputed":{recomputed},"hit_rate":{hit_rate:.4}}}"#,
        delta("lik.evaluations"),
        delta("lik.reuse.full_invalidations"),
        delta("lik.reuse.dirty_branches"),
    );
    (result, wall, counters)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Datasets i (long alignment, shallow 12-branch tree) and iii (short
    // alignment, deep 48-branch tree) stress the two ends of the reuse
    // trade-off: per-unit CPV work vs how much of the tree a dirty
    // root-path touches. Quick mode keeps iii — the shape the
    // optimization targets (single-branch probes prune O(depth) of a
    // deep tree) and the headline ≥2× number.
    let ids: &[DatasetId] = if quick {
        &[DatasetId::III]
    } else {
        &[DatasetId::I, DatasetId::III]
    };
    slim_obs::set_enabled(true);

    println!(
        "reuse speedup — slim+ backend, full H0+H1 test per point{}",
        if quick { ", quick" } else { "" }
    );
    println!(
        "{:>8} {:>12} {:>12} {:>9} {:>10} {:>10}",
        "dataset", "off (s)", "on (s)", "speedup", "hit_rate", "f_evals"
    );

    let mut rows = Vec::new();
    let mut worst = f64::INFINITY;
    let mut best = 0.0f64;
    for &id in ids {
        let d = dataset(id);
        // Order: reuse-off first so its caches can't warm the reuse run.
        let (off, off_secs, _) = run(&d, quick, false);
        let (on, on_secs, counters) = run(&d, quick, true);

        // Bit-identical trajectory: same evaluations, same optimum.
        for (name, a, b) in [
            ("H0 lnL", off.h0.lnl, on.h0.lnl),
            ("H1 lnL", off.h1.lnl, on.h1.lnl),
            ("LRT stat", off.lrt.statistic, on.lrt.statistic),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name} differs between reuse off/on on dataset {}: {a:?} vs {b:?}",
                id.label()
            );
        }
        for (name, a, b) in [
            ("H0 f_evals", off.h0.f_evals, on.h0.f_evals),
            ("H1 f_evals", off.h1.f_evals, on.h1.f_evals),
            ("H0 iterations", off.h0.iterations, on.h0.iterations),
            ("H1 iterations", off.h1.iterations, on.h1.iterations),
        ] {
            assert_eq!(
                a,
                b,
                "{name} differs between reuse off/on on dataset {}",
                id.label()
            );
        }
        assert_eq!(
            off.site_posteriors.len(),
            on.site_posteriors.len(),
            "posterior length differs on dataset {}",
            id.label()
        );
        for (i, (a, b)) in off
            .site_posteriors
            .iter()
            .zip(&on.site_posteriors)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "site posterior {i} differs between reuse off/on on dataset {}",
                id.label()
            );
        }

        let speedup = off_secs / on_secs;
        worst = worst.min(speedup);
        best = best.max(speedup);
        let (species, codons) = id.shape();
        let hit_rate: f64 = counters
            .split("\"hit_rate\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.0);
        println!(
            "{:>8} {:>12.4} {:>12.4} {:>8.2}x {:>10.4} {:>10}",
            id.label(),
            off_secs,
            on_secs,
            speedup,
            hit_rate,
            off.h0.f_evals + off.h1.f_evals,
        );
        rows.push(format!(
            r#"{{"dataset":"{}","species":{species},"codons":{codons},"lnl0":{:.6},"lnl1":{:.6},"f_evals":{},"iterations":{},"lnl_bits_identical":true,"off_seconds":{off_secs:.6},"on_seconds":{on_secs:.6},"speedup":{speedup:.4},"reuse":{counters}}}"#,
            id.label(),
            on.h0.lnl,
            on.h1.lnl,
            off.h0.f_evals + off.h1.f_evals,
            off.h0.iterations + off.h1.iterations,
        ));
    }

    let json = format!(
        r#"{{"bench":"reuse_speedup","backend":"slim+","quick":{quick},"min_speedup":{worst:.4},"max_speedup":{best:.4},"datasets":[{}]}}
"#,
        rows.join(",")
    );
    std::fs::write("BENCH_reuse.json", &json).expect("cannot write BENCH_reuse.json");
    println!("\nspeedup range {worst:.2}x–{best:.2}x — wrote BENCH_reuse.json");
}
