//! Tracing must never perturb numerics.
//!
//! The trace sink of `slim-obs` makes the same promise as its metrics:
//! turning the flight recorder on or off changes *no* computed value —
//! span begin/end capture happens strictly outside the arithmetic.
//! These tests pin that contract at two levels (the raw parallel
//! likelihood engine on every Table II dataset analog, and a whole H0
//! fit through the cached `slim+` backend, each bit-compared between a
//! trace-off and a trace-on run), and a property test checks that span
//! begin/end events keep strict stack discipline per thread under
//! random thread schedules.

use proptest::prelude::*;
use slimcodeml::bio::FreqModel;
use slimcodeml::core::{Analysis, AnalysisOptions, Backend, Hypothesis};
use slimcodeml::lik::{site_class_log_likelihoods, EngineConfig, LikelihoodProblem};
use slimcodeml::obs::Site;
use slimcodeml::sim::{dataset, DatasetId};
use slimcodeml::trace::Phase;
use std::sync::Mutex;

/// All tests toggle the process-global trace flag and drain the shared
/// ring; serialize them so one test's toggling cannot blank another's
/// trace-on window.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Engine lnL with tracing enabled vs disabled on every Table II
/// analog: identical to the last bit, for the total and every
/// per-pattern and per-class value.
#[test]
fn engine_lnl_bits_are_unchanged_by_tracing() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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

        slimcodeml::trace::set_enabled(false);
        let off = site_class_log_likelihoods(&problem, &config, &model, &bl)
            .expect("trace-off evaluation");

        slimcodeml::trace::set_enabled(true);
        slimcodeml::trace::clear();
        let on = site_class_log_likelihoods(&problem, &config, &model, &bl)
            .expect("trace-on evaluation");
        slimcodeml::trace::set_enabled(false);
        slimcodeml::trace::clear();

        assert_eq!(
            off.lnl.to_bits(),
            on.lnl.to_bits(),
            "dataset {}: lnL with tracing on ({}) differs from off ({})",
            id.label(),
            on.lnl,
            off.lnl
        );
        for (p, (a, b)) in off.per_pattern.iter().zip(&on.per_pattern).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "dataset {}: per-pattern {p} differs with tracing on",
                id.label()
            );
        }
        for (c, (a, b)) in off.per_class.iter().zip(&on.per_class).enumerate() {
            for (p, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "dataset {}: class {c} pattern {p} differs with tracing on",
                    id.label()
                );
            }
        }
    }
}

/// A full H0 fit through the cached `slim+` backend: every fitted
/// quantity bit-identical with tracing on vs off, and the trace-on
/// pass actually recorded spans (the test would be vacuous against a
/// permanently-disabled recorder).
#[test]
fn fit_bits_are_unchanged_by_tracing_and_recorder_records() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
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

    slimcodeml::trace::set_enabled(false);
    let off = Analysis::new(&tree, &aln, options.clone())
        .unwrap()
        .fit(Hypothesis::H0)
        .expect("trace-off fit");

    slimcodeml::trace::set_enabled(true);
    slimcodeml::trace::clear();
    let on = Analysis::new(&tree, &aln, options)
        .unwrap()
        .fit(Hypothesis::H0)
        .expect("trace-on fit");
    slimcodeml::trace::flush_thread();
    let (events, _dropped) = slimcodeml::trace::take_events();
    slimcodeml::trace::set_enabled(false);

    assert_eq!(off.lnl.to_bits(), on.lnl.to_bits(), "lnL changed");
    assert_eq!(off.iterations, on.iterations, "iteration count changed");
    for (label, a, b) in [
        ("kappa", off.model.kappa, on.model.kappa),
        ("omega0", off.model.omega0, on.model.omega0),
        ("p0", off.model.p0, on.model.p0),
        ("p1", off.model.p1, on.model.p1),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{label} changed with tracing on");
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
            "branch length {i} changed with tracing on"
        );
    }

    // Sanity: the instrumented layers really recorded during the
    // trace-on fit.
    let has = |name: &str| events.iter().any(|e| e.name == name);
    assert!(!events.is_empty(), "trace-on fit recorded no events");
    assert!(has("opt.fit"), "optimizer fit span missing");
    assert!(has("opt.iteration"), "optimizer iteration spans missing");
    assert!(has("lik.evaluate"), "likelihood evaluate spans missing");
    assert!(
        has("lik.phase.pruning"),
        "likelihood pruning phase spans missing"
    );
}

/// One span site per nesting depth, indexed by depth.
static DEPTH_SITES: [Site; 5] = [
    Site::new("prop.d0", "prop"),
    Site::new("prop.d1", "prop"),
    Site::new("prop.d2", "prop"),
    Site::new("prop.d3", "prop"),
    Site::new("prop.d4", "prop"),
];

/// Open `depth` nested spans and drop them in LIFO order.
fn nested_spans(depth: usize) {
    let _span = DEPTH_SITES[depth].span();
    std::thread::yield_now();
    if depth > 0 {
        nested_spans(depth - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Under an arbitrary thread schedule — N threads, each opening a
    /// random sequence of randomly-deep nested spans with yields in
    /// between — the recorder preserves strict per-thread stack
    /// discipline: every End matches the most recent unmatched Begin of
    /// the same name on its thread, per-thread timestamps never go
    /// backwards, and nothing is lost or duplicated.
    #[test]
    fn spans_nest_under_random_thread_schedules(
        schedules in proptest::collection::vec(
            proptest::collection::vec(1usize..5, 1..8),
            1..4,
        ),
    ) {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        slimcodeml::trace::set_enabled(true);
        slimcodeml::trace::clear();

        std::thread::scope(|scope| {
            for schedule in &schedules {
                scope.spawn(move || {
                    for &depth in schedule {
                        nested_spans(depth);
                        std::thread::yield_now();
                    }
                    // Scoped threads must drain their local buffers
                    // before the scope unblocks (TLS destructors race
                    // the join otherwise).
                    slimcodeml::trace::flush_thread();
                });
            }
        });

        let (mut events, dropped) = slimcodeml::trace::take_events();
        slimcodeml::trace::set_enabled(false);
        prop_assert_eq!(dropped, 0, "ring dropped events mid-test");

        // Only this test's spans; a concurrent test in this binary
        // cannot interleave (TRACE_LOCK), but keep the filter anyway.
        events.retain(|e| e.cat == "prop");
        events.sort_by_key(|e| e.seq);

        // Each schedule item of depth d opens d+1 spans (d..=0).
        let expected: usize = schedules
            .iter()
            .flatten()
            .map(|&d| d + 1)
            .sum();
        let begins = events.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = events.iter().filter(|e| e.phase == Phase::End).count();
        prop_assert_eq!(begins, expected, "lost or duplicated Begin events");
        prop_assert_eq!(ends, expected, "lost or duplicated End events");

        // Per-thread stack discipline and monotonic timestamps.
        let tids: std::collections::BTreeSet<u64> =
            events.iter().map(|e| e.tid).collect();
        prop_assert_eq!(tids.len(), schedules.len(), "unexpected thread count");
        for tid in tids {
            let mut stack: Vec<&str> = Vec::new();
            let mut last_ts = 0u64;
            for e in events.iter().filter(|e| e.tid == tid) {
                prop_assert!(
                    e.ts_us >= last_ts,
                    "thread {} timestamps went backwards",
                    tid
                );
                last_ts = e.ts_us;
                match e.phase {
                    Phase::Begin => stack.push(e.name),
                    Phase::End => {
                        let top = stack.pop();
                        prop_assert_eq!(
                            top,
                            Some(e.name),
                            "End does not match innermost Begin on thread {}",
                            tid
                        );
                    }
                    _ => {}
                }
            }
            prop_assert!(stack.is_empty(), "unclosed spans on thread {}", tid);
        }
    }
}
