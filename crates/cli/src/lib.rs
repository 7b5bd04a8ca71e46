//! # slim-cli
//!
//! Command-line front end mirroring CodeML's workflow: read a codon
//! alignment (FASTA or PHYLIP), a Newick tree with the foreground branch
//! marked `#1`, run the H0/H1 branch-site fits, and report the LRT and
//! positively-selected sites.
//!
//! ```text
//! slimcodeml --seq aln.fasta --tree tree.nwk [--backend slim|codeml|slim+|eq12]
//!            [--freq f3x4|f61|f1x4|equal] [--seed N] [--max-iter N] [--scan]
//!            [--timing] [--metrics out.json] [--metrics-format json|prom]
//!            [--trace out.trace.json]
//! slimcodeml batch manifest.json [--workers N] [--retries N] [--resume]
//!            [--out PREFIX] [--timing] [--metrics out.json] [--trace out.trace.json]
//! slimcodeml trace-report out.trace.json
//! ```
//!
//! Observability: every instrumented span feeds two `slim-obs` sinks.
//! `--timing` prints a per-phase wall-clock breakdown accumulated over
//! the whole fit, and `--metrics <path>` writes a registry snapshot (JSON
//! by default, Prometheus text with `--metrics-format prom`) covering the
//! optimizer, likelihood engine, analysis layer and batch runner. Setting `SLIMCODEML_METRICS` to a truthy value enables
//! collection without any flag.
//!
//! Tracing: `--trace <path>` records ordered `slim_obs::trace` events
//! through the whole pipeline and writes a Chrome Trace Event Format
//! JSON document for Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`; `trace-report <file>` summarizes such a file
//! into a per-iteration convergence table, why each fit stopped, which
//! H1 each test kept, and a critical-path breakdown. Both `--metrics`
//! and `--trace` accept `-` for stdout.
//!
//! The `batch` subcommand drives `slim-batch`: a manifest of gene
//! families is expanded into jobs, fanned across a worker pool with
//! retry and quarantine, checkpointed to `<PREFIX>.journal.jsonl`, and
//! aggregated into `<PREFIX>.tsv` + `<PREFIX>.json`.

pub mod ctl;

use ctl::CtlMode;
use slim_bio::{parse_newick, CodonAlignment, FreqModel, Tree};
use slim_core::{sites_test, Analysis, AnalysisOptions, Backend};
use slim_obs::trace::report::{render_report, RecordedEvent};
use slim_obs::Snapshot;
use slim_opt::GradMode;
use std::path::PathBuf;

/// Output format of the `--metrics <path>` snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// `slimcodeml.metrics.v1` JSON document (the default).
    #[default]
    Json,
    /// Prometheus text exposition.
    Prom,
}

impl MetricsFormat {
    /// Parse a `--metrics-format` value (`json` or `prom`).
    pub fn from_str_opt(s: &str) -> Option<MetricsFormat> {
        match s.to_ascii_lowercase().as_str() {
            "json" => Some(MetricsFormat::Json),
            "prom" | "prometheus" => Some(MetricsFormat::Prom),
            _ => None,
        }
    }
}

/// Parsed command-line configuration.
#[derive(Debug, Clone)]
pub struct CliConfig {
    /// Alignment file path.
    pub seq_path: String,
    /// Tree file path.
    pub tree_path: String,
    /// Analysis options assembled from flags.
    pub options: AnalysisOptions,
    /// Scan every branch instead of using the `#1` mark.
    pub scan: bool,
    /// Worker threads for `--scan` (each branch is an independent job).
    pub workers: usize,
    /// Which test to run (branch-site by default; `--sites` or a control
    /// file with `model = 0` selects M1a/M2a).
    pub mode: CtlMode,
    /// Print a per-phase wall-clock breakdown (eigen / expm / pruning /
    /// reduction, and the exact gradients' adjoint passes) accumulated
    /// over the whole H0 + H1 fit.
    pub timing: bool,
    /// Write a metrics snapshot to this path after the run.
    pub metrics_path: Option<String>,
    /// Format of the `--metrics` snapshot.
    pub metrics_format: MetricsFormat,
    /// Write a Chrome Trace Event Format JSON trace to this path after
    /// the run (`-` = stdout).
    pub trace_path: Option<String>,
}

/// Configuration of the `batch` subcommand.
#[derive(Debug, Clone)]
pub struct BatchCliConfig {
    /// Manifest file path.
    pub manifest_path: String,
    /// Worker threads.
    pub workers: usize,
    /// Extra attempts per job for recoverable failures.
    pub retries: usize,
    /// Continue from the checkpoint journal.
    pub resume: bool,
    /// Output prefix: writes `<prefix>.tsv`, `<prefix>.json`, and the
    /// journal `<prefix>.journal.jsonl`.
    pub out_prefix: String,
    /// Include wall-clock timing (and journal provenance) in the JSON
    /// report; off by default so output is deterministic.
    pub timing: bool,
    /// Write a metrics snapshot to this path after the run.
    pub metrics_path: Option<String>,
    /// Format of the `--metrics` snapshot.
    pub metrics_format: MetricsFormat,
    /// Write a Chrome Trace Event Format JSON trace to this path after
    /// the run (`-` = stdout).
    pub trace_path: Option<String>,
}

/// How the program was invoked: direct flags, a CodeML control file, the
/// `batch` subcommand, or the `trace-report` summarizer.
#[derive(Debug, Clone)]
pub enum Invocation {
    /// All inputs given as flags.
    Direct(Box<CliConfig>),
    /// `--ctl <path>`: read a codeml.ctl-style file.
    Ctl(String),
    /// `batch <manifest.json> ...`.
    Batch(BatchCliConfig),
    /// `trace-report <trace.json>`: summarize an emitted trace.
    TraceReport(String),
}

/// Parse argv-style arguments (excluding the program name).
///
/// # Errors
/// A human-readable message describing the flag problem.
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    if args.first().map(String::as_str) == Some("batch") {
        return parse_batch_args(&args[1..]).map(Invocation::Batch);
    }
    if args.first().map(String::as_str) == Some("trace-report") {
        return match args.get(1) {
            Some(path) if args.len() == 2 => Ok(Invocation::TraceReport(path.clone())),
            Some(_) => Err(format!("trace-report takes exactly one path\n{}", usage())),
            None => Err(format!(
                "trace-report requires a trace file path\n{}",
                usage()
            )),
        };
    }
    let mut seq_path = None;
    let mut tree_path = None;
    let mut options = AnalysisOptions::default();
    let mut scan = false;
    let mut workers = 1usize;
    let mut mode = CtlMode::BranchSite;
    let mut timing = false;
    let mut metrics_path = None;
    let mut metrics_format = MetricsFormat::default();
    let mut trace_path = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut take_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match arg.as_str() {
            "--seq" | "-s" => seq_path = Some(take_value("--seq")?),
            "--tree" | "-t" => tree_path = Some(take_value("--tree")?),
            "--backend" | "-b" => {
                let v = take_value("--backend")?;
                options.backend = Backend::from_str_opt(&v)
                    .ok_or_else(|| format!("unknown backend {v:?} (codeml|slim|slim+|eq12)"))?;
            }
            "--freq" | "-f" => {
                let v = take_value("--freq")?;
                options.freq_model = FreqModel::from_str_opt(&v)
                    .ok_or_else(|| format!("unknown frequency model {v:?}"))?;
            }
            "--seed" => {
                options.seed = take_value("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed value".to_string())?;
            }
            "--max-iter" => {
                options.max_iterations = take_value("--max-iter")?
                    .parse()
                    .map_err(|_| "bad --max-iter value".to_string())?;
            }
            "--forward-grad" => options.grad_mode = GradMode::Forward,
            "--mito" => options.genetic_code = slim_bio::GeneticCode::vertebrate_mitochondrial(),
            "--scan" => scan = true,
            "--workers" | "-w" => {
                workers = take_value("--workers")?
                    .parse()
                    .ok()
                    .filter(|&w: &usize| w >= 1)
                    .ok_or_else(|| "bad --workers value (need an integer ≥ 1)".to_string())?;
            }
            "--threads" => {
                // 0 = auto (available_parallelism); any value is
                // bit-identical to serial by the slim-par determinism
                // contract.
                options.threads = Some(
                    take_value("--threads")?
                        .parse()
                        .map_err(|_| "bad --threads value (need an integer, 0 = auto)")?,
                );
            }
            "--timing" => timing = true,
            "--metrics" => metrics_path = Some(take_value("--metrics")?),
            "--metrics-format" => {
                let v = take_value("--metrics-format")?;
                metrics_format = MetricsFormat::from_str_opt(&v)
                    .ok_or_else(|| format!("unknown metrics format {v:?} (json|prom)"))?;
            }
            "--trace" => trace_path = Some(take_value("--trace")?),
            "--sites" => mode = CtlMode::Sites,
            "--ctl" => {
                // The control file sets every option; a flag beside it
                // would be ignored, so refuse it.
                let path = take_value("--ctl")?;
                if args.len() != 2 {
                    return Err(format!(
                        "--ctl <path> takes no other arguments\n{}",
                        usage()
                    ));
                }
                return Ok(Invocation::Ctl(path));
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(Invocation::Direct(Box::new(CliConfig {
        seq_path: seq_path.ok_or_else(|| format!("--seq is required\n{}", usage()))?,
        tree_path: tree_path.ok_or_else(|| format!("--tree is required\n{}", usage()))?,
        options,
        scan,
        workers,
        mode,
        timing,
        metrics_path,
        metrics_format,
        trace_path,
    })))
}

fn parse_batch_args(args: &[String]) -> Result<BatchCliConfig, String> {
    let mut manifest_path = None;
    let mut workers = 1usize;
    let mut retries = 1usize;
    let mut resume = false;
    let mut out_prefix = None;
    let mut timing = false;
    let mut metrics_path = None;
    let mut metrics_format = MetricsFormat::default();
    let mut trace_path = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut take_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match arg.as_str() {
            "--workers" | "-w" => {
                workers = take_value("--workers")?
                    .parse()
                    .ok()
                    .filter(|&w: &usize| w >= 1)
                    .ok_or_else(|| "bad --workers value (need an integer ≥ 1)".to_string())?;
            }
            "--retries" => {
                retries = take_value("--retries")?
                    .parse()
                    .map_err(|_| "bad --retries value".to_string())?;
            }
            "--resume" => resume = true,
            "--out" | "-o" => out_prefix = Some(take_value("--out")?),
            "--timing" => timing = true,
            "--metrics" => metrics_path = Some(take_value("--metrics")?),
            "--metrics-format" => {
                let v = take_value("--metrics-format")?;
                metrics_format = MetricsFormat::from_str_opt(&v)
                    .ok_or_else(|| format!("unknown metrics format {v:?} (json|prom)"))?;
            }
            "--trace" => trace_path = Some(take_value("--trace")?),
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown batch flag {other:?}\n{}", usage()));
            }
            positional => {
                if manifest_path.replace(positional.to_string()).is_some() {
                    return Err(format!(
                        "unexpected extra argument {positional:?}\n{}",
                        usage()
                    ));
                }
            }
        }
    }
    let manifest_path =
        manifest_path.ok_or_else(|| format!("batch requires a manifest path\n{}", usage()))?;
    // Default the output prefix to `<manifest sans extension>.batch`, so
    // reports land next to the inputs. The `.batch` suffix keeps
    // `<prefix>.json` from colliding with the manifest itself.
    let out_prefix = out_prefix.unwrap_or_else(|| {
        let p = PathBuf::from(&manifest_path);
        format!("{}.batch", p.with_extension("").to_string_lossy())
    });
    Ok(BatchCliConfig {
        manifest_path,
        workers,
        retries,
        resume,
        out_prefix,
        timing,
        metrics_path,
        metrics_format,
        trace_path,
    })
}

/// Eagerly register every metric of the four instrumented layers
/// (optimizer, likelihood engine, analysis, batch runner), so a
/// `--metrics` snapshot always lists the full schema even for metrics
/// that never fired during the run.
pub fn register_all_metrics() {
    slim_opt::register_metrics();
    slim_lik::register_metrics();
    slim_core::register_metrics();
    slim_batch::register_metrics();
}

/// Turn metric collection on when the invocation needs it (`--timing`,
/// `--metrics`, or the `SLIMCODEML_METRICS` env var) and return a
/// baseline snapshot for delta reporting, or `None` when collection
/// stays off.
fn metrics_setup(timing: bool, metrics_path: Option<&String>) -> Option<Snapshot> {
    let collect = timing || metrics_path.is_some() || slim_obs::enabled();
    if !collect {
        return None;
    }
    slim_obs::set_enabled(true);
    register_all_metrics();
    Some(slim_obs::snapshot())
}

/// Write `text` to `path`, where `-` means stdout.
fn write_output(path: &str, text: &str, what: &str) -> Result<(), String> {
    if path == "-" {
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        out.write_all(text.as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| format!("cannot write {what} to stdout: {e}"))
    } else {
        std::fs::write(path, text).map_err(|e| format!("cannot write {what} file {path}: {e}"))
    }
}

/// Write the global registry snapshot to `path` (`-` = stdout) in the
/// requested format.
fn write_metrics_file(path: &str, format: MetricsFormat) -> Result<(), String> {
    let snap = slim_obs::snapshot();
    let text = match format {
        MetricsFormat::Json => snap.to_json(),
        MetricsFormat::Prom => snap.to_prometheus(),
    };
    write_output(path, &text, "metrics")
}

/// Turn event tracing on when `--trace` was given (the
/// `SLIMCODEML_TRACE` env var enables the flight recorder without any
/// flag, but only `--trace` exports a file). Clears the ring so the
/// trace covers exactly this run.
fn trace_setup(trace_path: Option<&String>) {
    if trace_path.is_some() {
        slim_obs::trace::set_enabled(true);
        slim_obs::trace::clear();
    }
}

/// Drain the flight recorder and write a Chrome Trace Event Format JSON
/// document to `path` (`-` = stdout). Load it in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`.
fn write_trace_file(path: &str) -> Result<(), String> {
    let (events, dropped) = slim_obs::trace::take_events();
    let json = slim_obs::trace::chrome_trace_json(&events, dropped);
    write_output(path, &json, "trace")
}

/// Run the `batch` subcommand: execute the manifest, write
/// `<prefix>.tsv` and `<prefix>.json`, and return a human-readable
/// summary for stdout.
///
/// # Errors
/// A human-readable message on manifest/journal/IO failure. Per-job
/// failures do not error — they are quarantined in the reports.
pub fn run_batch(config: &BatchCliConfig) -> Result<String, String> {
    metrics_setup(config.timing, config.metrics_path.as_ref());
    trace_setup(config.trace_path.as_ref());
    let run_config = slim_batch::RunConfig {
        workers: config.workers,
        retries: config.retries,
        resume: config.resume,
        journal_path: PathBuf::from(format!("{}.journal.jsonl", config.out_prefix)),
        ..slim_batch::RunConfig::default()
    };
    let report = slim_batch::run_batch(std::path::Path::new(&config.manifest_path), &run_config)
        .map_err(|e| e.to_string())?;

    let tsv_path = format!("{}.tsv", config.out_prefix);
    let json_path = format!("{}.json", config.out_prefix);
    if json_path == config.manifest_path || tsv_path == config.manifest_path {
        return Err(format!(
            "output prefix {:?} would overwrite the manifest {:?}; pick another --out",
            config.out_prefix, config.manifest_path
        ));
    }
    std::fs::write(&tsv_path, report.to_tsv())
        .map_err(|e| format!("cannot write {tsv_path}: {e}"))?;
    std::fs::write(&json_path, report.to_json(config.timing))
        .map_err(|e| format!("cannot write {json_path}: {e}"))?;
    if let Some(path) = &config.metrics_path {
        write_metrics_file(path, config.metrics_format)?;
    }
    if let Some(path) = &config.trace_path {
        write_trace_file(path)?;
    }

    let s = &report.summary;
    let mut out = format!(
        "batch: {} jobs — {} done, {} failed, {} cancelled ({} retried, {} from journal) \
         in {:.1}s on {} worker{}\n",
        s.total,
        s.done,
        s.failed,
        s.cancelled,
        s.retried,
        s.from_journal,
        s.wall_seconds,
        config.workers,
        if config.workers == 1 { "" } else { "s" }
    );
    for rec in &report.records {
        if let Err(f) = &rec.outcome {
            out.push_str(&format!(
                "  quarantined {} after {} attempt{}: {}\n",
                rec.key,
                rec.attempts,
                if rec.attempts == 1 { "" } else { "s" },
                f.error
            ));
        }
    }
    out.push_str(&format!("reports: {tsv_path}, {json_path}\n"));
    Ok(out)
}

/// Run the `trace-report` subcommand: parse a `--trace` JSON file back
/// into events and render the convergence table plus the critical-path
/// breakdown.
///
/// # Errors
/// A human-readable message on IO failure or a file that is not a
/// slimcodeml Chrome Trace Event Format document.
pub fn run_trace_report(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace file {path}: {e}"))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| format!("{path} has no \"traceEvents\" array (not a --trace output?)"))?;
    let mut recorded = Vec::with_capacity(events.len());
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("");
        // Metadata ("M") and any foreign phases are skipped: the report
        // only consumes B/E spans and instants.
        if !matches!(ph, "B" | "E" | "i") {
            continue;
        }
        let mut rec = RecordedEvent {
            name: ev
                .get("name")
                .and_then(serde_json::Value::as_str)
                .unwrap_or("")
                .to_string(),
            cat: ev
                .get("cat")
                .and_then(serde_json::Value::as_str)
                .unwrap_or("")
                .to_string(),
            ph: ph.chars().next().unwrap_or('i'),
            ts_us: ev
                .get("ts")
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0),
            tid: ev
                .get("tid")
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0),
            num_args: Vec::new(),
            str_args: Vec::new(),
        };
        if let Some(args) = ev.get("args").and_then(serde_json::Value::as_object) {
            for (k, v) in args {
                if let Some(x) = v.as_f64() {
                    rec.num_args.push((k.clone(), x));
                } else if let Some(b) = v.as_bool() {
                    rec.num_args.push((k.clone(), if b { 1.0 } else { 0.0 }));
                } else if let Some(s) = v.as_str() {
                    rec.str_args.push((k.clone(), s.to_string()));
                }
            }
        }
        recorded.push(rec);
    }
    if recorded.is_empty() {
        return Err(format!("{path}: trace contains no events"));
    }
    Ok(render_report(&recorded))
}

/// Render the per-phase wall-clock breakdown (`--timing`): the delta
/// between the pre-fit `baseline` registry snapshot and now, i.e. the
/// time accumulated across *every* likelihood evaluation of the H0 and
/// H1 fits (earlier versions timed a single extra evaluation at the H1
/// optimum; the header names the new semantics).
fn timing_report(analysis: &Analysis, baseline: &Snapshot) -> String {
    let after = slim_obs::snapshot();
    let sum = |name: &str| {
        let at = |s: &Snapshot| s.histogram(name).map_or(0.0, |h| h.sum_seconds);
        (at(&after) - at(baseline)).max(0.0)
    };
    let count = |name: &str| {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(baseline.counter(name).unwrap_or(0))
    };
    let eigen = sum("lik.phase.eigen_seconds");
    let expm = sum("lik.phase.expm_seconds");
    let pruning = sum("lik.phase.pruning_seconds");
    let reduction = sum("lik.phase.reduction_seconds");
    let gradient = sum("lik.phase.gradient_seconds");
    let threads = analysis.engine_config().resolved_threads();
    let simd = slim_lik::simd::resolve(analysis.engine_config().simd);
    let mut out = format!(
        "\ntiming (cumulative over the H0 + H1 fits, {} likelihood evaluations, \
         {} gradients, {} thread{}):\n  \
         eigen      {:>9.3} ms\n  \
         expm       {:>9.3} ms\n  \
         pruning    {:>9.3} ms\n  \
         reduction  {:>9.3} ms\n  \
         gradient   {:>9.3} ms\n  \
         total      {:>9.3} ms\n",
        count("lik.evaluations"),
        count("opt.grad_evals"),
        threads,
        if threads == 1 { "" } else { "s" },
        eigen * 1e3,
        expm * 1e3,
        pruning * 1e3,
        reduction * 1e3,
        gradient * 1e3,
        (eigen + expm + pruning + reduction + gradient) * 1e3,
    );
    out.push_str(&format!(
        "  simd: {} ({} lane{})\n",
        simd.name(),
        simd.lanes(),
        if simd.lanes() == 1 { "" } else { "s" },
    ));
    out
}

/// Usage text.
pub fn usage() -> String {
    "usage: slimcodeml --seq <aln.fasta|aln.phy> --tree <tree.nwk> \
     [--backend codeml|slim|slim+|eq12] [--freq equal|f1x4|f3x4|f61] \
     [--seed N] [--max-iter N] [--forward-grad] [--threads N] [--timing] \
     [--metrics <path>] [--metrics-format json|prom] [--trace <path>] \
     [--scan] [--workers N] [--sites]\n\
       or: slimcodeml --ctl <codeml.ctl>\n\
       or: slimcodeml batch <manifest.json> [--workers N] [--retries N] \
     [--resume] [--out PREFIX] [--timing] [--metrics <path>] \
     [--metrics-format json|prom] [--trace <path>]\n\
       or: slimcodeml trace-report <trace.json>\n\
     (--metrics/--trace accept \"-\" for stdout; --trace writes Chrome \
     Trace Event Format JSON for Perfetto / chrome://tracing; \
     SLIMCODEML_METRICS=1 / SLIMCODEML_TRACE=1 enable collection \
     without flags)"
        .to_string()
}

/// Load an alignment, sniffing FASTA vs PHYLIP from the first byte.
///
/// # Errors
/// A human-readable parse/IO message.
pub fn load_alignment(text: &str) -> Result<CodonAlignment, String> {
    load_alignment_with_code(text, &slim_bio::GeneticCode::universal())
}

/// Like [`load_alignment`] but validating stops under an explicit genetic
/// code (the `--mito` / `icode = 1` path).
///
/// # Errors
/// A human-readable parse message.
pub fn load_alignment_with_code(
    text: &str,
    code: &slim_bio::GeneticCode,
) -> Result<CodonAlignment, String> {
    let trimmed = text.trim_start();
    if slim_bio::is_nexus(text) {
        // NEXUS matrices are validated under the universal code at parse
        // time; re-validate under the requested code.
        let aln = slim_bio::parse_nexus_alignment(text).map_err(|e| e.to_string())?;
        let names = aln.names().to_vec();
        let seqs = (0..aln.n_sequences())
            .map(|i| aln.sequence(i).to_vec())
            .collect();
        CodonAlignment::new_with_code(names, seqs, code).map_err(|e| e.to_string())
    } else if trimmed.starts_with('>') {
        CodonAlignment::from_fasta_with_code(text, code).map_err(|e| e.to_string())
    } else {
        CodonAlignment::from_phylip_with_code(text, code).map_err(|e| e.to_string())
    }
}

/// Load a Newick tree.
///
/// # Errors
/// A human-readable parse message.
pub fn load_tree(text: &str) -> Result<Tree, String> {
    if slim_bio::is_nexus(text) {
        slim_bio::parse_nexus_tree(text).map_err(|e| e.to_string())
    } else {
        parse_newick(text).map_err(|e| e.to_string())
    }
}

/// Run the configured analysis and render a CodeML-style report.
///
/// # Errors
/// A human-readable message on any failure.
pub fn run(config: &CliConfig, seq_text: &str, tree_text: &str) -> Result<String, String> {
    let baseline = metrics_setup(config.timing, config.metrics_path.as_ref());
    trace_setup(config.trace_path.as_ref());
    let out = run_report(config, seq_text, tree_text, baseline.as_ref())?;
    if let Some(path) = &config.metrics_path {
        write_metrics_file(path, config.metrics_format)?;
    }
    if let Some(path) = &config.trace_path {
        write_trace_file(path)?;
    }
    Ok(out)
}

fn run_report(
    config: &CliConfig,
    seq_text: &str,
    tree_text: &str,
    baseline: Option<&Snapshot>,
) -> Result<String, String> {
    let aln = load_alignment_with_code(seq_text, &config.options.genetic_code)?;
    let tree = load_tree(tree_text)?;
    let mut out = String::new();
    out.push_str(&format!(
        "SlimCodeML reproduction — backend: {}\n{} sequences × {} codons\n\n",
        config.options.backend.label(),
        aln.n_sequences(),
        aln.n_codons()
    ));

    if config.mode == CtlMode::Sites {
        let result = sites_test(&tree, &aln, &config.options).map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "M1a: lnL = {:.6}, kappa = {:.4}, w0 = {:.4}, p0 = {:.4}, {} iterations\n",
            result.m1a.lnl,
            result.m1a.model.kappa,
            result.m1a.model.omega0,
            result.m1a.model.p0,
            result.m1a.iterations
        ));
        out.push_str(&format!(
            "M2a: lnL = {:.6}, kappa = {:.4}, w0 = {:.4}, w2 = {:.4}, p0 = {:.4}, p1 = {:.4}, {} iterations\n\n",
            result.m2a.lnl,
            result.m2a.model.kappa,
            result.m2a.model.omega0,
            result.m2a.model.omega2,
            result.m2a.model.p0,
            result.m2a.model.p1,
            result.m2a.iterations
        ));
        out.push_str(&format!(
            "LRT (M1a vs M2a): 2dlnL = {:.4}, p = {:.6} (chi2, 2 df) ({})\n",
            result.statistic,
            result.p_value,
            if result.p_value < 0.05 {
                "positive selection detected"
            } else {
                "not significant"
            }
        ));
        let sites: Vec<String> = result
            .site_posteriors
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.95)
            .map(|(i, p)| format!("{} ({:.3})", i + 1, p))
            .collect();
        if sites.is_empty() {
            out.push_str("No sites with posterior > 0.95.\n");
        } else {
            out.push_str(&format!(
                "Sites under positive selection (NEB > 0.95): {}\n",
                sites.join(", ")
            ));
        }
        return Ok(out);
    }

    if config.scan {
        // Branch scans go through the slim-batch pool: each branch is an
        // independent job, so scans get parallelism (`--workers`), retry,
        // and fault isolation — one pathological branch cannot abort the
        // scan.
        let sched = slim_batch::SchedulerConfig {
            workers: config.workers,
            ..slim_batch::SchedulerConfig::default()
        };
        let entries = slim_batch::scan_branches(&tree, &aln, &config.options, &sched);
        out.push_str("branch  child      lnL0           lnL1           2dlnL     p-value\n");
        for e in &entries {
            let child = e.child_name.clone().unwrap_or_else(|| "(internal)".into());
            match &e.outcome {
                Ok(r) => out.push_str(&format!(
                    "{:<7} {:<10} {:<14.6} {:<14.6} {:<9.4} {:.4}{}\n",
                    e.branch.0,
                    child,
                    r.lnl0,
                    r.lnl1,
                    r.stat,
                    r.p_value,
                    if r.p_value < 0.05 { "  *" } else { "" }
                )),
                Err(f) => out.push_str(&format!(
                    "{:<7} {:<10} failed after {} attempt{}: {}\n",
                    e.branch.0,
                    child,
                    e.attempts,
                    if e.attempts == 1 { "" } else { "s" },
                    f.error
                )),
            }
        }
        return Ok(out);
    }

    let analysis = Analysis::new(&tree, &aln, config.options.clone()).map_err(|e| e.to_string())?;
    let result = analysis
        .test_positive_selection()
        .map_err(|e| e.to_string())?;
    out.push_str(&format!(
        "{}\n{}\n\n",
        result.h0.summary(),
        result.h1.summary()
    ));
    if config.timing {
        let baseline = baseline.expect("--timing turns metric collection on");
        out.push_str(&timing_report(&analysis, baseline));
    }
    out.push_str(&format!(
        "LRT: 2dlnL = {:.4}, p = {:.6} ({})\n",
        result.lrt.statistic,
        result.lrt.p_value,
        if result.lrt.significant_at(0.05) {
            "positive selection detected"
        } else {
            "not significant"
        }
    ));
    let sites: Vec<String> = result
        .site_posteriors
        .iter()
        .enumerate()
        .filter(|(_, &p)| p > 0.95)
        .map(|(i, p)| format!("{} ({:.3})", i + 1, p))
        .collect();
    if sites.is_empty() {
        out.push_str("No sites with posterior > 0.95.\n");
    } else {
        out.push_str(&format!(
            "Sites under positive selection (NEB > 0.95): {}\n",
            sites.join(", ")
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn direct(inv: Invocation) -> CliConfig {
        match inv {
            Invocation::Direct(c) => *c,
            Invocation::Ctl(p) => panic!("expected direct invocation, got ctl {p:?}"),
            Invocation::Batch(b) => panic!("expected direct invocation, got batch {b:?}"),
            Invocation::TraceReport(p) => {
                panic!("expected direct invocation, got trace-report {p:?}")
            }
        }
    }

    #[test]
    fn parses_minimal() {
        let c = direct(parse_args(&args(&["--seq", "a.fa", "--tree", "t.nwk"])).unwrap());
        assert_eq!(c.seq_path, "a.fa");
        assert_eq!(c.tree_path, "t.nwk");
        assert_eq!(c.options.backend, Backend::Slim);
        assert!(!c.scan);
        assert_eq!(c.mode, CtlMode::BranchSite);
    }

    #[test]
    fn parses_batch_subcommand() {
        let inv = parse_args(&args(&[
            "batch",
            "runs/m.json",
            "--workers",
            "4",
            "--retries",
            "2",
            "--resume",
            "--out",
            "runs/out",
            "--timing",
        ]))
        .unwrap();
        match inv {
            Invocation::Batch(b) => {
                assert_eq!(b.manifest_path, "runs/m.json");
                assert_eq!(b.workers, 4);
                assert_eq!(b.retries, 2);
                assert!(b.resume);
                assert_eq!(b.out_prefix, "runs/out");
                assert!(b.timing);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_defaults_and_errors() {
        match parse_args(&args(&["batch", "m.json"])).unwrap() {
            Invocation::Batch(b) => {
                assert_eq!(b.workers, 1);
                assert_eq!(b.retries, 1);
                assert!(!b.resume);
                assert_eq!(
                    b.out_prefix, "m.batch",
                    "default prefix must not let <prefix>.json collide with the manifest"
                );
                assert!(!b.timing);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_args(&args(&["batch"])).is_err(),
            "manifest path required"
        );
        assert!(parse_args(&args(&["batch", "a.json", "b.json"])).is_err());
        assert!(parse_args(&args(&["batch", "m.json", "--workers", "0"])).is_err());
        assert!(parse_args(&args(&["batch", "m.json", "--wat"])).is_err());
    }

    #[test]
    fn batch_subcommand_runs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("slim_cli_batch_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.nwk"), "((A:0.1,B:0.2):0.05,C:0.3);").unwrap();
        std::fs::write(
            dir.join("g.fasta"),
            ">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n",
        )
        .unwrap();
        let manifest = dir.join("m.json");
        std::fs::write(
            &manifest,
            r#"{"version":1,"genes":[
                {"id":"g","alignment":"g.fasta","tree":"t.nwk","branches":["A"],"max_iterations":15}
            ]}"#,
        )
        .unwrap();
        let config = match parse_args(&args(&[
            "batch",
            manifest.to_str().unwrap(),
            "--workers",
            "2",
        ]))
        .unwrap()
        {
            Invocation::Batch(b) => b,
            other => panic!("{other:?}"),
        };
        let summary = run_batch(&config).unwrap();
        assert!(summary.contains("1 done"), "{summary}");
        let prefix = dir.join("m.batch");
        let tsv = std::fs::read_to_string(format!("{}.tsv", prefix.display())).unwrap();
        assert!(tsv.starts_with("job_id\t"));
        assert!(tsv.contains("g:2\tg:A\tdone"), "{tsv}");
        assert!(std::fs::metadata(format!("{}.json", prefix.display())).is_ok());
        assert!(std::fs::metadata(format!("{}.journal.jsonl", prefix.display())).is_ok());
        // The manifest must survive the run untouched.
        let manifest_after = std::fs::read_to_string(&manifest).unwrap();
        assert!(
            manifest_after.contains("\"genes\""),
            "manifest overwritten: {manifest_after}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_timing_adds_json_timing_and_metrics() {
        let dir = std::env::temp_dir().join(format!("slim_cli_batch_obs_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.nwk"), "((A:0.1,B:0.2):0.05,C:0.3);").unwrap();
        std::fs::write(
            dir.join("g.fasta"),
            ">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n",
        )
        .unwrap();
        let manifest = dir.join("m.json");
        std::fs::write(
            &manifest,
            r#"{"version":1,"genes":[
                {"id":"g","alignment":"g.fasta","tree":"t.nwk","branches":["A"],"max_iterations":15}
            ]}"#,
        )
        .unwrap();
        let metrics_path = dir.join("batch.metrics.json");
        let config = match parse_args(&args(&[
            "batch",
            manifest.to_str().unwrap(),
            "--timing",
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]))
        .unwrap()
        {
            Invocation::Batch(b) => b,
            other => panic!("{other:?}"),
        };
        run_batch(&config).unwrap();
        let prefix = dir.join("m.batch");
        let tsv = std::fs::read_to_string(format!("{}.tsv", prefix.display())).unwrap();
        let header = tsv.lines().next().unwrap();
        assert!(header.ends_with("\tpos_sites\terror"), "{header}");
        let json = std::fs::read_to_string(format!("{}.json", prefix.display())).unwrap();
        assert!(json.contains("\"wall_seconds\""), "{json}");
        let snap = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(snap.contains("\"batch.jobs.completed\""), "{snap}");
        assert!(snap.contains("\"batch.job_seconds\""), "{snap}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_report_via_worker_pool() {
        let cfg = direct(
            parse_args(&args(&[
                "--seq",
                "-",
                "--tree",
                "-",
                "--max-iter",
                "10",
                "--scan",
                "--workers",
                "2",
            ]))
            .unwrap(),
        );
        assert_eq!(cfg.workers, 2);
        let report = run(
            &cfg,
            ">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n",
            "((A:0.2,B:0.2):0.1,C:0.3);",
        )
        .unwrap();
        assert!(report.contains("branch  child"), "{report}");
        // 3-taxon tree: 4 branches, each with finite fits.
        assert_eq!(
            report.lines().filter(|l| l.contains("0.")).count(),
            4,
            "{report}"
        );
        assert!(!report.contains("failed"), "{report}");
    }

    #[test]
    fn threads_and_timing_flags() {
        let c = direct(
            parse_args(&args(&[
                "--seq",
                "a",
                "--tree",
                "t",
                "--threads",
                "4",
                "--timing",
            ]))
            .unwrap(),
        );
        assert_eq!(c.options.threads, Some(4));
        assert!(c.timing);
        let auto =
            direct(parse_args(&args(&["--seq", "a", "--tree", "t", "--threads", "0"])).unwrap());
        assert_eq!(auto.options.threads, Some(0), "0 means auto");
        assert!(parse_args(&args(&["--seq", "a", "--tree", "t", "--threads", "x"])).is_err());
        assert!(parse_args(&args(&["--seq", "a", "--tree", "t", "--threads"])).is_err());
    }

    #[test]
    fn end_to_end_timing_report() {
        let cfg = direct(
            parse_args(&args(&[
                "--seq",
                "-",
                "--tree",
                "-",
                "--max-iter",
                "8",
                "--threads",
                "2",
                "--timing",
            ]))
            .unwrap(),
        );
        let report = run(
            &cfg,
            ">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n",
            "((A:0.2,B:0.2)#1:0.1,C:0.3);",
        )
        .unwrap();
        for phase in ["eigen", "expm", "pruning", "reduction", "gradient", "total"] {
            assert!(report.contains(phase), "missing {phase} in: {report}");
        }
        assert!(report.contains("2 threads"), "{report}");
        assert!(
            report.contains("cumulative over the H0 + H1 fits"),
            "timing header must state the cumulative semantics: {report}"
        );
        assert!(report.contains("likelihood evaluations"), "{report}");
    }

    #[test]
    fn parses_metrics_flags() {
        let c = direct(
            parse_args(&args(&[
                "--seq",
                "a",
                "--tree",
                "t",
                "--metrics",
                "m.json",
                "--metrics-format",
                "prom",
            ]))
            .unwrap(),
        );
        assert_eq!(c.metrics_path.as_deref(), Some("m.json"));
        assert_eq!(c.metrics_format, MetricsFormat::Prom);
        let plain = direct(parse_args(&args(&["--seq", "a", "--tree", "t"])).unwrap());
        assert_eq!(plain.metrics_path, None);
        assert_eq!(plain.metrics_format, MetricsFormat::Json);
        assert!(parse_args(&args(&[
            "--seq",
            "a",
            "--tree",
            "t",
            "--metrics-format",
            "xml"
        ]))
        .is_err());
        match parse_args(&args(&["batch", "m.json", "--metrics", "b.prom"])).unwrap() {
            Invocation::Batch(b) => assert_eq!(b.metrics_path.as_deref(), Some("b.prom")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn metrics_snapshot_covers_all_layers() {
        let dir = std::env::temp_dir().join(format!("slim_cli_metrics_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.metrics.json");
        let cfg = CliConfig {
            metrics_path: Some(path.to_string_lossy().into_owned()),
            ..direct(parse_args(&args(&["--seq", "-", "--tree", "-", "--max-iter", "8"])).unwrap())
        };
        run(
            &cfg,
            ">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n",
            "((A:0.2,B:0.2)#1:0.1,C:0.3);",
        )
        .unwrap();
        let snap = std::fs::read_to_string(&path).unwrap();
        assert!(
            snap.starts_with("{\"schema\":\"slimcodeml.metrics.v1\""),
            "{snap}"
        );
        // One representative metric per instrumented layer; eager
        // registration guarantees batch.* appears even in a single-gene
        // run.
        for key in [
            "opt.iterations",
            "lik.evaluations",
            "lik.phase.eigen_seconds",
            "core.test_seconds",
            "batch.jobs.completed",
        ] {
            assert!(
                snap.contains(&format!("\"{key}\"")),
                "missing {key} in {snap}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_prometheus_format() {
        let dir = std::env::temp_dir().join(format!("slim_cli_prom_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.metrics.prom");
        let cfg = CliConfig {
            metrics_path: Some(path.to_string_lossy().into_owned()),
            metrics_format: MetricsFormat::Prom,
            ..direct(parse_args(&args(&["--seq", "-", "--tree", "-", "--max-iter", "8"])).unwrap())
        };
        run(
            &cfg,
            ">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n",
            "((A:0.2,B:0.2)#1:0.1,C:0.3);",
        )
        .unwrap();
        let snap = std::fs::read_to_string(&path).unwrap();
        assert!(
            snap.contains("# TYPE slimcodeml_opt_iterations counter"),
            "{snap}"
        );
        assert!(
            snap.contains("# TYPE slimcodeml_lik_phase_pruning_seconds histogram"),
            "{snap}"
        );
        assert!(
            snap.contains("slimcodeml_lik_phase_pruning_seconds_bucket{le=\"+Inf\"}"),
            "{snap}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_trace_flags() {
        let c = direct(
            parse_args(&args(&["--seq", "a", "--tree", "t", "--trace", "out.json"])).unwrap(),
        );
        assert_eq!(c.trace_path.as_deref(), Some("out.json"));
        let stdout =
            direct(parse_args(&args(&["--seq", "a", "--tree", "t", "--trace", "-"])).unwrap());
        assert_eq!(stdout.trace_path.as_deref(), Some("-"));
        let plain = direct(parse_args(&args(&["--seq", "a", "--tree", "t"])).unwrap());
        assert_eq!(plain.trace_path, None);
        match parse_args(&args(&["batch", "m.json", "--trace", "b.trace.json"])).unwrap() {
            Invocation::Batch(b) => assert_eq!(b.trace_path.as_deref(), Some("b.trace.json")),
            other => panic!("{other:?}"),
        }
        match parse_args(&args(&["trace-report", "t.json"])).unwrap() {
            Invocation::TraceReport(p) => assert_eq!(p, "t.json"),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args(&["trace-report"])).is_err());
        assert!(parse_args(&args(&["trace-report", "a", "b"])).is_err());
    }

    #[test]
    fn end_to_end_trace_export_and_report() {
        let dir = std::env::temp_dir().join(format!("slim_cli_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.trace.json");
        let cfg = CliConfig {
            trace_path: Some(path.to_string_lossy().into_owned()),
            ..direct(parse_args(&args(&["--seq", "-", "--tree", "-", "--max-iter", "8"])).unwrap())
        };
        run(
            &cfg,
            ">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n",
            "((A:0.2,B:0.2)#1:0.1,C:0.3);",
        )
        .unwrap();
        slim_obs::trace::set_enabled(false);
        let text = std::fs::read_to_string(&path).unwrap();
        // Structurally valid Trace Event Format: the document parses and
        // every event carries the required fields.
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        for ev in events {
            for key in ["name", "ph", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
            }
        }
        // The trace covers optimizer and likelihood layers.
        for name in ["opt.fit", "opt.iteration", "lik.evaluate"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(serde_json::Value::as_str) == Some(name)),
                "no {name} event in trace"
            );
        }
        // And trace-report summarizes it.
        let report = run_trace_report(path.to_str().unwrap()).unwrap();
        assert!(report.contains("Convergence trace"), "{report}");
        assert!(report.contains("lnL"), "{report}");
        assert!(report.contains("Critical path"), "{report}");
        assert!(report.contains("fit 1 (bfgs): stopped on "), "{report}");
        assert!(report.contains("test 1: H1 from "), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ctl_invocation() {
        match parse_args(&args(&["--ctl", "codeml.ctl"])).unwrap() {
            Invocation::Ctl(p) => assert_eq!(p, "codeml.ctl"),
            other => panic!("{other:?}"),
        }
        // Any other argument is an error, not silently dropped.
        for bad in [
            &["--threads", "4", "--ctl", "c.ctl"][..],
            &["--ctl", "c.ctl", "--timing"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sites_flag() {
        let c = direct(parse_args(&args(&["--seq", "a", "--tree", "t", "--sites"])).unwrap());
        assert_eq!(c.mode, CtlMode::Sites);
    }

    #[test]
    fn parses_all_flags() {
        let c = direct(
            parse_args(&args(&[
                "--seq",
                "a.fa",
                "--tree",
                "t.nwk",
                "--backend",
                "codeml",
                "--freq",
                "f61",
                "--seed",
                "7",
                "--max-iter",
                "99",
                "--forward-grad",
                "--scan",
            ]))
            .unwrap(),
        );
        assert_eq!(c.options.backend, Backend::CodeMlStyle);
        assert_eq!(c.options.freq_model, FreqModel::F61);
        assert_eq!(c.options.seed, 7);
        assert_eq!(c.options.max_iterations, 99);
        assert!(c.scan);
    }

    #[test]
    fn missing_required_flags() {
        assert!(parse_args(&args(&["--seq", "a.fa"])).is_err());
        assert!(parse_args(&args(&["--tree", "t.nwk"])).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse_args(&args(&["--wat"])).is_err());
        assert!(parse_args(&args(&["--seq", "a", "--tree", "t", "--backend", "zzz"])).is_err());
    }

    #[test]
    fn alignment_sniffing() {
        assert!(load_alignment(">A\nATG\n>B\nATG\n").is_ok());
        assert!(load_alignment("2 3\nA ATG\nB ATG\n").is_ok());
        assert!(load_alignment("#NEXUS\nBEGIN DATA;\nMATRIX\nA ATG\nB ATG\n;\nEND;\n").is_ok());
        assert!(load_alignment("garbage").is_err());
        assert!(load_tree("#NEXUS\nBEGIN TREES;\nTREE t = (A:0.1,B:0.2);\nEND;\n").is_ok());
    }

    #[test]
    fn end_to_end_sites_report() {
        let cfg = direct(
            parse_args(&args(&[
                "--seq",
                "-",
                "--tree",
                "-",
                "--max-iter",
                "8",
                "--sites",
            ]))
            .unwrap(),
        );
        let report = run(
            &cfg,
            ">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n",
            "((A:0.2,B:0.2):0.1,C:0.3);", // note: no #1 needed
        )
        .unwrap();
        assert!(report.contains("M1a"));
        assert!(report.contains("M2a"));
        assert!(report.contains("LRT"));
    }

    #[test]
    fn end_to_end_report() {
        let cfg =
            direct(parse_args(&args(&["--seq", "-", "--tree", "-", "--max-iter", "10"])).unwrap());
        let report = run(
            &cfg,
            ">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n",
            "((A:0.2,B:0.2)#1:0.1,C:0.3);",
        )
        .unwrap();
        assert!(report.contains("lnL"));
        assert!(report.contains("LRT"));
    }
}
