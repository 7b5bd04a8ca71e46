//! The three workloads and the runs that measure them: an end-to-end run
//! with instrumentation off, and a traced run that times each layer.

use crate::calib;
use crate::gate::{self, Answer, References};
use crate::gen::{self, Gene};
use crate::layers;
use crate::spans::{clock, Recorder, Span};
use crate::stats::{self, median};
use slim_batch::{BatchRecord, RunSummary};
use slim_bio::{parse_newick, CodonAlignment, Tree};
use slim_core::{Analysis, AnalysisOptions, BranchSiteModel, CoreError, TestResult};
use slim_opt::TerminationReason;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Few species, long alignment: pruning carries the fit.
    LongAlignment,
    /// Many species, short alignment: eigendecompositions, `P(t)` and the
    /// gradient's evaluation count carry the fit.
    ManySpecies,
    /// Every branch of small genes through the batch layer's worker pool.
    BranchScan,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [
        Workload::LongAlignment,
        Workload::ManySpecies,
        Workload::BranchScan,
    ];

    /// Name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LongAlignment => "long-alignment",
            Workload::ManySpecies => "many-species",
            Workload::BranchScan => "branch-scan",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// (species, codons) of every gene the workload generates.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Workload::LongAlignment => (4, 1500),
            Workload::ManySpecies => (12, 20),
            Workload::BranchScan => (5, 80),
        }
    }

    /// Genes in the workload's panel. Every run tests the same genes
    /// (presented per seed, see [`gen::gene`]): one converged test costs
    /// 2–10 s and its cost varies 3× from gene to gene, so a run holds
    /// too few tests for fresh genes per seed to give a steady median.
    pub fn panel(self) -> usize {
        match self {
            Workload::LongAlignment => 4,
            Workload::ManySpecies => 4,
            Workload::BranchScan => 2,
        }
    }
}

/// Batch workers on `branch-scan`, one per core of a two-core machine.
pub const BATCH_WORKERS: usize = 2;
/// Tail percentile, per mille, of a run with fewer than
/// [`stats::TAIL_MIN_SAMPLES`] tests.
const SHORT_RUN_TAIL: u64 = 750;
/// Timed parse + `Analysis::new` repetitions per gene for the set-up
/// samples: at least this many, and more until they add up to
/// [`SETUP_MIN_S`]. One repetition takes 0.05–1.5 ms, and a burst of a
/// few milliseconds lands wholly in whatever the host is doing then.
const SETUP_REPS: usize = 100;
/// Timed set-up seconds per gene that end the repetitions.
const SETUP_MIN_S: f64 = 0.25;
/// Repetitions per gene that end them in any case.
const SETUP_MAX_REPS: usize = 10_000;
/// Untimed repetitions before them, so that the timed ones start warm.
const SETUP_WARMUP: usize = 20;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed the genes are generated from.
    pub seed: u64,
    /// Measurement budget: no test (or batch) starts once it is spent.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory for batch inputs, journals and the span file.
    pub work_dir: PathBuf,
}

/// A named measurement; `None` when the program no longer registers a
/// counter it is computed from, or no test it is computed from finished.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, or `None` when unavailable.
    pub value: Option<f64>,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    /// False when the run itself is invalid (a batch replayed journaled
    /// records, or lost jobs).
    pub correct: bool,
    /// Tests attempted.
    pub attempted: usize,
    /// Tests that failed the correctness gate.
    pub failed: usize,
    /// End-to-end or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: one per test, then summaries.
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub spans: Option<Recorder>,
}

/// Run one workload.
///
/// # Errors
/// I/O on the work directory, or a batch run that cannot start.
pub fn run(config: &Config, refs: &References) -> Result<Report, String> {
    match (config.workload, config.trace) {
        (Workload::BranchScan, false) => scan_end_to_end(config, refs),
        (Workload::BranchScan, true) => scan_traced(config, refs),
        (_, false) => tests_end_to_end(config, refs),
        (_, true) => tests_traced(config, refs),
    }
}

/// A run tests its whole panel unless the budget is already spent.
fn over_budget(start: Instant, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() > seconds
}

/// Tests attempted and failed, with one note per test.
#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Tally {
    /// Gate one test and note it with its wall seconds and, in end-to-end
    /// runs, its nominal seconds.
    fn record(
        &mut self,
        config: &Config,
        refs: &References,
        gene: &str,
        seconds: f64,
        nominal: Option<f64>,
        answer: &Result<Answer, String>,
    ) {
        self.attempted += 1;
        let name = config.workload.name();
        let verdict = gate::check(answer, refs.get(name, gene));
        let (lnl0, lnl1) = answer
            .as_ref()
            .map_or((f64::NAN, f64::NAN), |a| (a.lnl0, a.lnl1));
        let status = match verdict {
            Ok(()) => "pass".to_string(),
            Err(failure) => {
                self.failed += 1;
                format!("fail:{failure}")
            }
        };
        let nominal = nominal.map_or("-".to_string(), |n| format!("{n:.4}"));
        self.notes.push(format!(
            "test\t{name}\t{gene}\t{lnl0:?}\t{lnl1:?}\t{seconds:.4}\t{nominal}\t{status}"
        ));
    }
}

/// Calibration points around consecutive stretches of work: each point
/// closes one stretch and opens the next.
struct Calibrator {
    threads: usize,
    last_s: f64,
}

impl Calibrator {
    /// Take the first point, on `threads` threads.
    fn start(threads: usize) -> Calibrator {
        Calibrator {
            threads,
            last_s: calib::point(threads),
        }
    }

    /// Wall-to-nominal factor of work done right after the last point,
    /// from that point alone.
    fn opening(&self) -> f64 {
        calib::factor(self.last_s, self.last_s)
    }

    /// Close the stretch since the last point: its wall-to-nominal factor.
    fn close(&mut self) -> f64 {
        let after = calib::point(self.threads);
        let factor = calib::factor(self.last_s, after);
        self.last_s = after;
        factor
    }
}

/// Default engine a user gets, with the thread count pinned to one.
fn options() -> AnalysisOptions {
    AnalysisOptions {
        threads: Some(1),
        ..AnalysisOptions::default()
    }
}

/// A gene parsed and set up, with its set-up timings.
struct Prepared {
    tree: Tree,
    analysis: Analysis,
    parse_s: Vec<f64>,
    setup_s: Vec<f64>,
}

impl Prepared {
    /// Seconds from generated text to ready `Analysis`, per repetition.
    fn total_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.parse_s.iter().zip(&self.setup_s).map(|(p, s)| p + s)
    }
}

/// Parse the gene's text and build its `Analysis` [`SETUP_WARMUP`] times
/// untimed, then timed until [`SETUP_REPS`] and [`SETUP_MIN_S`] are both
/// reached, keeping the last result; spans go to `rec` when tracing.
fn prepare(gene: &Gene, mut rec: Option<(&mut Recorder, usize)>) -> Result<Prepared, String> {
    let mut parse_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut timed_s = 0.0;
    let mut last = None;
    for rep in 0..SETUP_WARMUP + SETUP_MAX_REPS {
        if parse_s.len() >= SETUP_REPS && timed_s >= SETUP_MIN_S {
            break;
        }
        let mut rec = rec.as_mut().filter(|_| rep >= SETUP_WARMUP);
        let span = rec
            .as_mut()
            .map(|(r, parent)| r.open("bio.parse", Some(*parent), Some(&gene.id)));
        let t = clock();
        let tree = parse_newick(&gene.newick).map_err(|e| format!("{}: {e}", gene.id))?;
        let aln =
            CodonAlignment::from_fasta(&gene.fasta).map_err(|e| format!("{}: {e}", gene.id))?;
        let parsed = t.elapsed().as_secs_f64();
        if let (Some((r, _)), Some(id)) = (rec.as_mut(), span) {
            r.close(id);
        }
        let span = rec
            .as_mut()
            .map(|(r, parent)| r.open("core.setup", Some(*parent), Some(&gene.id)));
        let t = clock();
        let analysis =
            Analysis::new(&tree, &aln, options()).map_err(|e| format!("{}: {e}", gene.id))?;
        let built = t.elapsed().as_secs_f64();
        if let (Some((r, _)), Some(id)) = (rec.as_mut(), span) {
            r.close(id);
        }
        if rep >= SETUP_WARMUP {
            parse_s.push(parsed);
            setup_s.push(built);
            timed_s += parsed + built;
        }
        last = Some((tree, analysis));
    }
    let (tree, analysis) = last.ok_or("no set-up repetitions")?;
    Ok(Prepared {
        tree,
        analysis,
        parse_s,
        setup_s,
    })
}

/// The gate's view of a test, re-evaluating `Analysis::log_likelihood` at
/// both returned estimates.
fn answer(analysis: &Analysis, result: &Result<TestResult, CoreError>) -> Result<Answer, String> {
    let r = result.as_ref().map_err(|e| e.to_string())?;
    let replay0 = analysis.log_likelihood(&r.h0.model, &r.h0.branch_lengths);
    let replay1 = analysis.log_likelihood(&r.h1.model, &r.h1.branch_lengths);
    match (replay0, replay1) {
        (Ok(p0), Ok(p1)) => Ok(Answer {
            lnl0: r.h0.lnl,
            lnl1: r.h1.lnl,
            replay: Some((p0, p1)),
        }),
        (Err(e), _) | (_, Err(e)) => Err(format!("re-evaluation at the estimates: {e}")),
    }
}

/// Peak resident memory of this process, MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// An end-to-end run's times, in nominal seconds (see [`calib`]).
#[derive(Debug, Default)]
struct Nominal {
    /// One per test.
    test_s: Vec<f64>,
    /// One per set-up repetition.
    setup_s: Vec<f64>,
    /// Every calibrated stretch of work together: set-up, tests, gate.
    work_s: f64,
    /// The same stretches in wall seconds.
    wall_s: f64,
}

impl Nominal {
    /// Add one calibrated stretch of `wall_s` wall seconds.
    fn stretch(&mut self, wall_s: f64, factor: f64) {
        self.wall_s += wall_s;
        self.work_s += wall_s * factor;
    }
}

/// The end-to-end metrics of a run, plus a note naming the tail.
fn end_to_end(times: &Nominal, tally: &Tally) -> (Vec<Metric>, String) {
    let test_s = &times.test_s;
    // Runs too short for the tail rule report their upper quartile.
    let (tail_pm, tail) = match stats::tail(test_s) {
        Some((pm, v)) => (pm, Some(v)),
        None => (SHORT_RUN_TAIL, stats::percentile(test_s, SHORT_RUN_TAIL)),
    };
    let tail_name = stats::percentile_name(tail_pm);
    let passed = tally.attempted - tally.failed;
    let note = format!(
        "summary\ttests={}\tpassed={passed}\ttail={tail_name}\twall_s={:.3}\tnominal_s={:.3}\tsetup_samples={}",
        test_s.len(),
        times.wall_s,
        times.work_s,
        times.setup_s.len()
    );
    let metrics = vec![
        metric("test_s.p50", median(test_s), "s"),
        metric("test_s.tail", tail, "s"),
        metric(
            "tests_per_min",
            (times.work_s > 0.0).then(|| 60.0 * test_s.len() as f64 / times.work_s),
            "1/min",
        ),
        metric("setup_s", median(&times.setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric(
            "pass_rate",
            (tally.attempted > 0).then(|| passed as f64 / tally.attempted as f64),
            "ratio",
        ),
    ];
    (metrics, note)
}

/// `long-alignment` and `many-species`, end to end: one converged test
/// at a time over the panel, each gene's set-up, test and gate one
/// calibrated stretch.
fn tests_end_to_end(config: &Config, refs: &References) -> Result<Report, String> {
    let (species, codons) = config.workload.shape();
    let mut tally = Tally::default();
    let mut times = Nominal::default();
    let start = clock();
    let mut cal = Calibrator::start(1);
    for index in 0..config.workload.panel() {
        if over_budget(start, config.seconds) {
            break;
        }
        let gene = gen::gene(species, codons, index, config.seed);
        // The set-up repetitions take a fraction of a second right after
        // the opening point; the test runs on until the closing one.
        let setup_factor = cal.opening();
        let stretch = clock();
        let prep = match prepare(&gene, None) {
            Ok(prep) => prep,
            Err(e) => {
                tally.record(config, refs, &gene.id, 0.0, None, &Err(e));
                continue;
            }
        };
        let t = clock();
        let result = prep.analysis.test_positive_selection();
        let seconds = t.elapsed().as_secs_f64();
        let answer = answer(&prep.analysis, &result);
        let wall_s = stretch.elapsed().as_secs_f64();
        let factor = cal.close();
        times.stretch(wall_s, factor);
        times.test_s.push(seconds * factor);
        times
            .setup_s
            .extend(prep.total_s().map(|s| s * setup_factor));
        tally.record(
            config,
            refs,
            &gene.id,
            seconds,
            Some(seconds * factor),
            &answer,
        );
    }
    let (metrics, note) = end_to_end(&times, &tally);
    let mut notes = std::mem::take(&mut tally.notes);
    notes.push(note);
    Ok(Report {
        correct: true,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        spans: None,
    })
}

/// `slim_obs` counters read per test, by name; a counter the program no
/// longer registers reads `None`.
const COUNTERS: [&str; 5] = [
    "opt.iterations",
    "opt.f_evals",
    "opt.line_search_steps",
    "lik.reuse.units_reused",
    "lik.reuse.units_recomputed",
];

fn read_counters() -> [Option<u64>; 5] {
    let snapshot = slim_obs::snapshot();
    COUNTERS.map(|name| snapshot.counter(name))
}

/// Per-counter increase between two reads. A counter registered only
/// after `before` started from zero.
pub fn counter_deltas(before: [Option<u64>; 5], after: [Option<u64>; 5]) -> [Option<u64>; 5] {
    let mut out = [None; 5];
    for (o, (b, a)) in out.iter_mut().zip(before.into_iter().zip(after)) {
        *o = a.map(|a| a.saturating_sub(b.unwrap_or(0)));
    }
    out
}

/// Layer numbers of one traced test (or one traced batch).
#[derive(Debug, Clone, Default)]
struct Row {
    traced_s: f64,
    fit_s: Option<f64>,
    eval_full_s: Option<f64>,
    counts: [Option<u64>; 5],
    unconverged: Option<usize>,
    eigen_s: Option<f64>,
    pt_s: Option<f64>,
    branches: usize,
}

/// Batch-layer numbers of a traced run's batches (one per gene).
#[derive(Debug, Clone, Default)]
struct BatchLayer {
    job_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    /// Wall seconds of each batch.
    wall_s: Vec<f64>,
    /// Straggler tail of each batch.
    tail_s: Vec<f64>,
    retried: usize,
    failed: usize,
}

impl BatchLayer {
    /// Busy worker time over worker time available, across the batches.
    fn utilization(&self) -> Option<f64> {
        let wall: f64 = self.wall_s.iter().sum();
        (wall > 0.0).then(|| self.job_s.iter().sum::<f64>() / (BATCH_WORKERS as f64 * wall))
    }
}

/// Median of the present values, `None` when there are none.
fn median_of(values: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let v: Vec<f64> = values.flatten().collect();
    median(&v)
}

/// Sum of one counter over rows, `None` if any row lacks it.
fn sum_count(rows: &[Row], k: usize) -> Option<f64> {
    rows.iter()
        .map(|r| r.counts[k].map(|c| c as f64))
        .sum::<Option<f64>>()
}

/// Time one layer call inside a span.
fn in_span<R>(
    rec: &mut Recorder,
    name: &str,
    parent: usize,
    gene: Option<&str>,
    f: impl FnOnce() -> R,
) -> R {
    let id = rec.open(name, Some(parent), gene);
    let out = f();
    rec.close(id);
    out
}

/// Eigen, `P(t)` and full-evaluation timings at one parameter point.
fn time_layers(
    rec: &mut Recorder,
    root: usize,
    gene: &str,
    analysis: &Analysis,
    model: &BranchSiteModel,
    branch_lengths: &[f64],
) -> (Option<f64>, Option<f64>, Option<f64>) {
    let eval = in_span(rec, "lik.eval_full", root, Some(gene), || {
        layers::eval_full_s(analysis, model, branch_lengths).ok()
    });
    let eigen = in_span(rec, "expm.eigen", root, Some(gene), || {
        layers::eigen_s(analysis, model).ok()
    });
    let pt = in_span(rec, "expm.pt", root, Some(gene), || {
        layers::pt_s(analysis, model, branch_lengths).ok()
    });
    (eval, eigen, pt)
}

/// Names of the metrics a run reports: end to end, or per layer with
/// `trace`.
pub fn metric_names(trace: bool) -> Vec<&'static str> {
    let metrics = if trace {
        per_layer(&[], &[], &[], &[], None, &[])
    } else {
        end_to_end(&Nominal::default(), &Tally::default()).0
    };
    metrics.iter().map(|m| m.name).collect()
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn per_layer(
    prep_parse: &[f64],
    prep_setup: &[f64],
    rows: &[Row],
    overhead_pairs: &[(f64, f64)],
    batch: Option<&BatchLayer>,
    kernels: &[layers::Kernel],
) -> Vec<Metric> {
    let ms = |v: Option<f64>| v.map(|s| s * 1e3);
    let us = |v: Option<f64>| v.map(|s| s * 1e6);
    let traced = median_of(rows.iter().map(|r| Some(r.traced_s)));
    let pair_traced = median_of(overhead_pairs.iter().map(|p| Some(p.0)));
    let pair_untraced = median_of(overhead_pairs.iter().map(|p| Some(p.1)));
    let iterations = sum_count(rows, 0);
    let f_evals = sum_count(rows, 1);
    let per_test = |k: usize| median_of(rows.iter().map(|r| r.counts[k].map(|c| c as f64)));
    // No units processed reads 0, as the program's own hit-rate gauges do.
    let reuse = match (sum_count(rows, 3), sum_count(rows, 4)) {
        (Some(a), Some(b)) if a + b > 0.0 => Some(a / (a + b)),
        (Some(_), Some(_)) => Some(0.0),
        _ => None,
    };
    let discarded = median_of(rows.iter().map(|r| {
        let (fit, eval) = (r.fit_s?, r.eval_full_s?);
        Some((r.traced_s - fit - eval) / r.traced_s)
    }));
    let share = median_of(rows.iter().map(|r| {
        let (eigen, pt, eval) = (r.eigen_s?, r.pt_s?, r.eval_full_s?);
        Some((3.0 * eigen + 3.0 * r.branches as f64 * pt) / eval)
    }));
    let ms_per_eval = match (traced, per_test(1)) {
        (Some(t), Some(f)) if f > 0.0 => Some(t * 1e3 / f),
        _ => None,
    };
    let unconverged = rows
        .iter()
        .map(|r| r.unconverged.map(|u| u as f64))
        .sum::<Option<f64>>();
    let kernel = |name: &str| kernels.iter().find(|k| k.name == name);
    let k_us = |name: &str| kernel(name).map(|k| k.seconds * 1e6);
    let k_flops = |name: &str| kernel(name).map(|k| k.flops);
    let k_bytes = |name: &str| kernel(name).map(|k| k.bytes);
    let k_intensity = |name: &str| kernel(name).map(|k| k.flops / k.bytes);
    // A workload that runs no batch reads 0 jobs, 0 seconds and 0
    // utilization in the batch layer.
    let b = |f: &dyn Fn(&BatchLayer) -> Option<f64>| batch.map_or(Some(0.0), f);
    vec![
        metric("bio.parse_ms", ms(median(prep_parse)), "ms"),
        metric("core.setup_ms", ms(median(prep_setup)), "ms"),
        metric("core.test_s", traced, "s"),
        metric("core.fit_s", median_of(rows.iter().map(|r| r.fit_s)), "s"),
        metric("core.discarded_share", discarded, "ratio"),
        metric("opt.iterations", per_test(0), "count"),
        metric("opt.f_evals", per_test(1), "count"),
        metric("opt.line_search_steps", per_test(2), "count"),
        metric(
            "opt.evals_per_iter",
            match (f_evals, iterations) {
                (Some(f), Some(i)) if i > 0.0 => Some(f / i),
                _ => None,
            },
            "count",
        ),
        metric("opt.unconverged_fits", unconverged, "count"),
        metric(
            "lik.eval_full_ms",
            ms(median_of(rows.iter().map(|r| r.eval_full_s))),
            "ms",
        ),
        metric("lik.ms_per_fit_eval", ms_per_eval, "ms"),
        metric("lik.reuse_hit_rate", reuse, "ratio"),
        metric(
            "expm.eigen_us",
            us(median_of(rows.iter().map(|r| r.eigen_s))),
            "us",
        ),
        metric(
            "expm.pt_us",
            us(median_of(rows.iter().map(|r| r.pt_s))),
            "us",
        ),
        metric("expm.full_eval_share", share, "ratio"),
        metric("linalg.gemv_us", k_us("gemv"), "us"),
        metric("linalg.syrk_us", k_us("syrk"), "us"),
        metric("linalg.gemm_us", k_us("gemm"), "us"),
        metric("linalg.eigen_us", k_us("eigen"), "us"),
        metric("linalg.gemv_flops", k_flops("gemv"), "flop"),
        metric("linalg.syrk_flops", k_flops("syrk"), "flop"),
        metric("linalg.gemm_flops", k_flops("gemm"), "flop"),
        metric("linalg.eigen_flops", k_flops("eigen"), "flop"),
        metric("linalg.gemv_bytes", k_bytes("gemv"), "B"),
        metric("linalg.syrk_bytes", k_bytes("syrk"), "B"),
        metric("linalg.gemm_bytes", k_bytes("gemm"), "B"),
        metric("linalg.gemv_ops_per_byte", k_intensity("gemv"), "flop/B"),
        metric("linalg.syrk_ops_per_byte", k_intensity("syrk"), "flop/B"),
        metric("linalg.gemm_ops_per_byte", k_intensity("gemm"), "flop/B"),
        metric("batch.job_s", b(&|b| median(&b.job_s)), "s"),
        metric("batch.queue_wait_s", b(&|b| median(&b.queue_wait_s)), "s"),
        metric("batch.utilization", b(&BatchLayer::utilization), "ratio"),
        metric("batch.tail_s", b(&|b| median(&b.tail_s)), "s"),
        metric("batch.retried", b(&|b| Some(b.retried as f64)), "count"),
        metric("batch.failed", b(&|b| Some(b.failed as f64)), "count"),
        metric(
            "bench.trace_overhead",
            match (pair_traced, pair_untraced) {
                (Some(t), Some(u)) if u > 0.0 => Some(t / u - 1.0),
                _ => None,
            },
            "ratio",
        ),
    ]
}

/// The n = 61 kernels, one span each.
fn time_kernels(rec: &mut Recorder, root: usize) -> Vec<layers::Kernel> {
    layers::KERNELS
        .iter()
        .map(|&name| {
            let span = format!("linalg.{name}");
            in_span(rec, &span, root, None, || layers::kernel(name))
        })
        .collect()
}

/// One test of `analysis` with `slim_obs` on, inside a `core.test` span,
/// then its layers timed at the H1 estimates: the gate's view of it, its
/// traced seconds and the run's [`Row`] for it.
fn traced_test(
    rec: &mut Recorder,
    root: usize,
    key: &str,
    analysis: &Analysis,
) -> (Result<Answer, String>, f64, Option<Row>) {
    slim_obs::set_enabled(true);
    let before = read_counters();
    let span = rec.open("core.test", Some(root), Some(key));
    let t = clock();
    let result = analysis.test_positive_selection();
    let traced_s = t.elapsed().as_secs_f64();
    rec.close(span);
    let counts = counter_deltas(before, read_counters());
    slim_obs::set_enabled(false);
    let answer = answer(analysis, &result);
    let row = result.as_ref().ok().map(|r| {
        let (eval, eigen, pt) =
            time_layers(rec, root, key, analysis, &r.h1.model, &r.h1.branch_lengths);
        let unconverged = [&r.h0, &r.h1]
            .iter()
            .filter(|f| {
                matches!(
                    f.termination,
                    TerminationReason::MaxIterations | TerminationReason::LineSearchFailed
                )
            })
            .count();
        Row {
            traced_s,
            fit_s: Some((r.h0.wall_time + r.h1.wall_time).as_secs_f64()),
            eval_full_s: eval,
            counts,
            unconverged: Some(unconverged),
            eigen_s: eigen,
            pt_s: pt,
            branches: r.h1.branch_lengths.len(),
        }
    });
    (answer, traced_s, row)
}

/// Traced `long-alignment` / `many-species`: every panel gene is tested
/// twice, with `slim_obs` off and on (alternating which runs first, so
/// warm-up favours neither), and its layers are timed at the H1 estimates.
fn tests_traced(config: &Config, refs: &References) -> Result<Report, String> {
    let (species, codons) = config.workload.shape();
    let start = clock();
    let mut rec = Recorder::new(start);
    let root = rec.open("bench.run", None, None);
    let mut tally = Tally::default();
    let (mut parse_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut rows = Vec::new();
    let mut pairs = Vec::new();
    for index in 0..config.workload.panel() {
        // Each gene is tested twice here.
        if over_budget(start, 2.0 * config.seconds) {
            break;
        }
        let gene = gen::gene(species, codons, index, config.seed);
        let prep = match prepare(&gene, Some((&mut rec, root))) {
            Ok(prep) => prep,
            Err(e) => {
                tally.record(config, refs, &gene.id, 0.0, None, &Err(e));
                continue;
            }
        };
        parse_s.extend_from_slice(&prep.parse_s);
        setup_s.extend_from_slice(&prep.setup_s);

        let untraced = |rec: &mut Recorder, tally: &mut Tally| {
            let span = rec.open("core.test_untraced", Some(root), Some(&gene.id));
            let t = clock();
            let result = prep.analysis.test_positive_selection();
            let seconds = t.elapsed().as_secs_f64();
            rec.close(span);
            let answer = answer(&prep.analysis, &result);
            tally.record(config, refs, &gene.id, seconds, None, &answer);
            seconds
        };
        let untraced_first = (index % 2 == 0).then(|| untraced(&mut rec, &mut tally));
        let (answer, traced_s, row) = traced_test(&mut rec, root, &gene.id, &prep.analysis);
        tally.record(config, refs, &gene.id, traced_s, None, &answer);
        let untraced_s = match untraced_first {
            Some(seconds) => seconds,
            None => untraced(&mut rec, &mut tally),
        };
        pairs.push((traced_s, untraced_s));
        rows.extend(row);
    }
    let kernels = time_kernels(&mut rec, root);
    rec.close(root);
    let metrics = per_layer(&parse_s, &setup_s, &rows, &pairs, None, &kernels);
    finish_traced(tally, metrics, rec, rows.len())
}

/// Common tail of the traced runs: notes with self times per span name.
fn finish_traced(
    mut tally: Tally,
    metrics: Vec<Metric>,
    rec: Recorder,
    units: usize,
) -> Result<Report, String> {
    let mut notes = std::mem::take(&mut tally.notes);
    notes.push(format!("summary\ttraced_units={units}"));
    for (name, t) in rec.totals() {
        notes.push(format!(
            "span\t{name}\tcount={}\ttotal_s={:.4}\tself_s={:.4}",
            t.count, t.total, t.self_time
        ));
    }
    Ok(Report {
        correct: true,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        spans: Some(rec),
    })
}

/// One batch run over every branch of one gene.
struct Scan {
    /// Records with their completion time, seconds after the batch began.
    done: Vec<(BatchRecord, f64)>,
    summary: RunSummary,
    wall_s: f64,
}

impl Scan {
    /// The batch ran exactly the manifest's jobs, none replayed from a
    /// journal.
    fn valid(&self) -> bool {
        self.summary.from_journal == 0 && self.done.len() == self.summary.total
    }
}

/// Write the gene and a manifest testing every branch of it under `dir`,
/// and run it through `slim_batch::run_batch_with` with a fresh journal.
fn scan(dir: &Path, gene: &Gene) -> Result<Scan, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    std::fs::create_dir_all(dir).map_err(io)?;
    let fasta = format!("{}.fasta", gene.id);
    let newick = format!("{}.nwk", gene.id);
    std::fs::write(dir.join(&fasta), &gene.fasta).map_err(io)?;
    std::fs::write(dir.join(&newick), &gene.newick).map_err(io)?;
    let manifest = dir.join("manifest.json");
    std::fs::write(
        &manifest,
        format!(
            "{{\"version\": 1, \"genes\": [{{\"id\": \"{}\", \"alignment\": \"{fasta}\", \"tree\": \"{newick}\", \"branches\": \"all\"}}]}}\n",
            gene.id
        ),
    )
    .map_err(io)?;
    let batch_config = slim_batch::RunConfig {
        workers: BATCH_WORKERS,
        journal_path: dir.join("journal.jsonl"),
        ..slim_batch::RunConfig::default()
    };
    let start = clock();
    let mut done = Vec::new();
    let report = slim_batch::run_batch_with(&manifest, &batch_config, |record| {
        done.push((record.clone(), start.elapsed().as_secs_f64()));
    })
    .map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(dir).map_err(io)?;
    Ok(Scan {
        done,
        summary: report.summary,
        wall_s,
    })
}

/// The gate's view of one batch job. The batch API returns lnLs and H1
/// parameters but no branch lengths, so there is no replay.
fn job_answer(record: &BatchRecord) -> Result<Answer, String> {
    match &record.outcome {
        Ok(o) => Ok(Answer {
            lnl0: o.lnl0,
            lnl1: o.lnl1,
            replay: None,
        }),
        Err(failure) => Err(format!("quarantined: {}", failure.error)),
    }
}

/// The panel's genes, each parsed and set up as in [`prepare`].
fn prepare_panel(
    config: &Config,
    tally: &mut Tally,
    refs: &References,
    mut rec: Option<(&mut Recorder, usize)>,
) -> (Vec<Gene>, Vec<Prepared>) {
    let (species, codons) = config.workload.shape();
    let mut genes = Vec::new();
    let mut prepared = Vec::new();
    for index in 0..config.workload.panel() {
        let gene = gen::gene(species, codons, index, config.seed);
        match prepare(&gene, rec.as_mut().map(|(r, root)| (&mut **r, *root))) {
            Ok(prep) => prepared.push(prep),
            Err(e) => tally.record(config, refs, &gene.id, 0.0, None, &Err(e)),
        }
        genes.push(gene);
    }
    (genes, prepared)
}

/// `branch-scan`, end to end: one batch per panel gene over all its
/// branches; every job is one test. The panel's set-up is one calibrated
/// stretch, each batch another, calibrated on every worker's core.
fn scan_end_to_end(config: &Config, refs: &References) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut times = Nominal::default();
    let start = clock();
    let mut cal = Calibrator::start(1);
    let stretch = clock();
    let (genes, prepared) = prepare_panel(config, &mut tally, refs, None);
    let wall_s = stretch.elapsed().as_secs_f64();
    let factor = cal.close();
    times.stretch(wall_s, factor);
    times.setup_s = prepared
        .iter()
        .flat_map(Prepared::total_s)
        .map(|s| s * factor)
        .collect();
    let mut valid = true;
    let mut cal = Calibrator::start(BATCH_WORKERS);
    for gene in &genes {
        if over_budget(start, config.seconds) {
            break;
        }
        let stretch = clock();
        let result = scan(&config.work_dir.join(format!("batch-{}", gene.id)), gene)?;
        let wall_s = stretch.elapsed().as_secs_f64();
        let factor = cal.close();
        times.stretch(wall_s, factor);
        valid &= result.valid();
        for (record, _) in &result.done {
            times.test_s.push(record.seconds * factor);
            tally.record(
                config,
                refs,
                &record.key,
                record.seconds,
                Some(record.seconds * factor),
                &job_answer(record),
            );
        }
    }
    let (metrics, note) = end_to_end(&times, &tally);
    let mut notes = std::mem::take(&mut tally.notes);
    notes.push(note);
    Ok(Report {
        correct: valid,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        spans: None,
    })
}

/// Straggler tail of a batch: from the moment a worker ran out of jobs
/// (the `BATCH_WORKERS`-th completion from the end) to the last completion.
pub fn straggler_tail(completions: &[f64]) -> Option<f64> {
    let v = stats::sorted(completions);
    let last = *v.last()?;
    let first_idle = v.len().checked_sub(BATCH_WORKERS).and_then(|i| v.get(i))?;
    Some(last - first_idle)
}

/// Traced `branch-scan`: each panel gene's batch runs once with
/// `slim_obs` off and once with it on (the traced batch's jobs become
/// `batch.job` spans rebuilt from the observer), and then the gene's own
/// foreground branch, one of its batch jobs, is tested directly through
/// `slim-core` so the core, opt, lik and expm layers are read per test as
/// on the other workloads.
fn scan_traced(config: &Config, refs: &References) -> Result<Report, String> {
    let start = clock();
    let mut rec = Recorder::new(start);
    let root = rec.open("bench.run", None, None);
    let mut tally = Tally::default();
    let (genes, prepared) = prepare_panel(config, &mut tally, refs, Some((&mut rec, root)));
    let parse_s: Vec<f64> = prepared.iter().flat_map(|p| p.parse_s.clone()).collect();
    let setup_s: Vec<f64> = prepared.iter().flat_map(|p| p.setup_s.clone()).collect();

    let mut valid = true;
    let mut batch = BatchLayer::default();
    let mut pairs = Vec::new();
    for gene in &genes {
        let span = rec.open("batch.run_untraced", Some(root), Some(&gene.id));
        let untraced = scan(&config.work_dir.join(format!("off-{}", gene.id)), gene)?;
        rec.close(span);
        for (record, _) in &untraced.done {
            tally.record(
                config,
                refs,
                &record.key,
                record.seconds,
                None,
                &job_answer(record),
            );
        }

        slim_obs::set_enabled(true);
        let run_span = rec.open("batch.run", Some(root), Some(&gene.id));
        let traced = scan(&config.work_dir.join(format!("on-{}", gene.id)), gene)?;
        rec.close(run_span);
        slim_obs::set_enabled(false);
        valid &= untraced.valid() && traced.valid();

        let batch_start = rec.spans().get(run_span).map_or(0.0, |s| s.start);
        let mut completions = Vec::new();
        for (record, done_at) in &traced.done {
            tally.record(
                config,
                refs,
                &record.key,
                record.seconds,
                None,
                &job_answer(record),
            );
            let end = batch_start + done_at;
            rec.push(Span {
                name: "batch.job".to_string(),
                start: end - record.seconds,
                end,
                parent: Some(run_span),
                gene: Some(record.key.clone()),
            });
            batch.job_s.push(record.seconds);
            batch.queue_wait_s.push((done_at - record.seconds).max(0.0));
            batch.retried += record.attempts.saturating_sub(1);
            batch.failed += usize::from(record.outcome.is_err());
            completions.push(*done_at);
            if let Some((u, _)) = untraced.done.iter().find(|(u, _)| u.key == record.key) {
                pairs.push((record.seconds, u.seconds));
            }
        }
        batch.wall_s.push(traced.wall_s);
        batch.tail_s.extend(straggler_tail(&completions));
    }

    let mut rows = Vec::new();
    for (gene, prep) in genes.iter().zip(&prepared) {
        let Ok(foreground) = prep.tree.foreground_branch() else {
            continue;
        };
        let key = format!("{}:{}", gene.id, foreground.0);
        let (answer, traced_s, row) = traced_test(&mut rec, root, &key, &prep.analysis);
        tally.record(config, refs, &key, traced_s, None, &answer);
        rows.extend(row);
    }

    let kernels = time_kernels(&mut rec, root);
    rec.close(root);
    let metrics = per_layer(&parse_s, &setup_s, &rows, &pairs, Some(&batch), &kernels);
    let mut report = finish_traced(tally, metrics, rec, rows.len())?;
    report.correct = valid;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(metrics: &[Metric], name: &str) -> Option<f64> {
        metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    #[test]
    fn a_run_without_batches_reads_zero_in_the_batch_layer() {
        let row = Row {
            traced_s: 2.0,
            counts: [Some(10), Some(200), Some(5), Some(0), Some(0)],
            ..Row::default()
        };
        let metrics = per_layer(&[], &[], &[row], &[], None, &[]);
        for name in [
            "batch.job_s",
            "batch.queue_wait_s",
            "batch.utilization",
            "batch.tail_s",
            "batch.retried",
            "batch.failed",
        ] {
            assert_eq!(value(&metrics, name), Some(0.0), "{name}");
        }
        // No reuse units processed: 0, as the program's gauges read.
        assert_eq!(value(&metrics, "lik.reuse_hit_rate"), Some(0.0));
        assert_eq!(value(&metrics, "opt.evals_per_iter"), Some(20.0));
    }

    #[test]
    fn batch_layer_pools_its_batches() {
        let batch = BatchLayer {
            job_s: vec![1.0, 3.0, 2.0, 2.0],
            queue_wait_s: vec![0.0, 0.0, 1.0, 3.0],
            wall_s: vec![3.0, 2.0],
            tail_s: vec![1.0, 0.5],
            retried: 0,
            failed: 0,
        };
        // 8 busy seconds over 2 workers × 5 wall seconds.
        assert_eq!(batch.utilization(), Some(0.8));
        let metrics = per_layer(&[], &[], &[], &[], Some(&batch), &[]);
        assert_eq!(value(&metrics, "batch.job_s"), Some(2.0));
        assert_eq!(value(&metrics, "batch.tail_s"), Some(0.75));
    }
}
