//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or the per-layer ones with `--trace 1`). Lines
//! before it, each starting with `#`, describe every test and the run.

use perfbench::gate::References;
use perfbench::workloads::{self, Config, Report, Workload};
use std::process::ExitCode;

/// Variables that change the engine's threads, reuse or SIMD dispatch, or
/// switch instrumentation on; the benchmark pins all of these itself.
const PINNED_ENV: [&str; 5] = [
    "SLIMCODEML_THREADS",
    "SLIMCODEML_REUSE",
    "SLIMCODEML_SIMD",
    "SLIMCODEML_METRICS",
    "SLIMCODEML_TRACE",
];

const USAGE: &str =
    "usage: perfbench --workload <long-alignment|many-species|branch-scan> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

/// A finite number with all its digits, or `null`.
fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v:?}"),
        _ => "null".to_string(),
    }
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark pins threads, reuse, SIMD and instrumentation itself",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let refs = match References::recorded() {
        Ok(refs) => refs,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cwd = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work_dir = cwd.join(".perfbench").join(format!(
        "{}-seed{seed}-trace{}-pid{}",
        workload.name(),
        u8::from(trace),
        std::process::id()
    ));
    let config = Config {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    };
    let report = match workloads::run(&config, &refs) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# run\tworkload={}\tseed={seed}\tseconds={seconds}\ttrace={}\tsimd={}\tcores={}\treferences={}",
        workload.name(),
        u8::from(trace),
        slim_linalg::simd::active().name(),
        std::thread::available_parallelism().map_or(0, usize::from),
        refs.len()
    );
    for note in &report.notes {
        println!("# {note}");
    }
    if let Some(spans) = &report.spans {
        let path = config.work_dir.join("spans.jsonl");
        let written = std::fs::create_dir_all(&config.work_dir)
            .and_then(|()| std::fs::write(&path, spans.to_jsonl()));
        match written {
            Ok(()) => println!("# spans\t{}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}
