//! `slim-check` CLI: scan the workspace, compare against the ratchet
//! baseline, exit nonzero on regressions.
//!
//! ```text
//! slim-check [--root <dir>] [--baseline <file>] [--update-baseline]
//!            [--list] [--json] [--stale-waivers] [--explain <rule>]
//! ```
//!
//! Exit codes: 0 = clean (or baseline updated), 1 = regressions vs the
//! baseline, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use slim_check::baseline::{self, Delta};
use slim_check::rules::{Diagnostic, RuleId};
use slim_check::{rules, scan_workspace_with, ScanOptions};

struct Args {
    root: PathBuf,
    baseline: PathBuf,
    update: bool,
    list: bool,
    json: bool,
    stale_waivers: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut update = false;
    let mut list = false;
    let mut json = false;
    let mut stale_waivers = false;
    let mut explain = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--baseline" => {
                baseline_path = Some(PathBuf::from(it.next().ok_or("--baseline needs a file")?));
            }
            "--update-baseline" => update = true,
            "--list" => list = true,
            "--json" => json = true,
            "--stale-waivers" => stale_waivers = true,
            "--explain" => {
                explain = Some(it.next().ok_or("--explain needs a rule name")?);
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // Running under `cargo run -p slim-check` puts the cwd at the
    // workspace root already; under `cargo test` the manifest dir is the
    // crate — prefer an explicit workspace root when the default cwd has
    // no crates/ directory.
    if !root.join("crates").is_dir() {
        if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
            let candidate = PathBuf::from(manifest).join("../..");
            if candidate.join("crates").is_dir() {
                root = candidate;
            }
        }
    }
    let baseline = baseline_path.unwrap_or_else(|| root.join("check_baseline.json"));
    Ok(Args {
        root,
        baseline,
        update,
        list,
        json,
        stale_waivers,
        explain,
    })
}

fn usage() -> &'static str {
    "slim-check: repo-specific determinism/robustness lints with a ratchet baseline\n\
     \n\
     usage: slim-check [--root <dir>] [--baseline <file>] [--update-baseline]\n\
     \x20                 [--list] [--json] [--stale-waivers] [--explain <rule>]\n\
     \n\
     --root <dir>        workspace root to scan (default: .)\n\
     --baseline <file>   ratchet baseline (default: <root>/check_baseline.json)\n\
     --update-baseline   rewrite the baseline to match the current scan\n\
     --list              print every current violation, not just deltas\n\
     --json              machine-readable findings/deltas on stdout\n\
     --stale-waivers     fail waivers that suppress no finding (CI runs this)\n\
     --explain <rule>    print a rule's rationale and waiver syntax\n\
     \n\
     line rules:\n\
     \x20 det-hash-iter        no HashMap/HashSet in report/journal/aggregation paths\n\
     \x20 det-float-accum      no raw f64 accumulation in lik/linalg outside blessed kernels\n\
     \x20 det-float-cmp        no ==/!= against float literals in non-test code\n\
     \x20 det-wallclock        no Instant::now/SystemTime outside obs/bench crates\n\
     \x20 rob-unwrap           no unwrap/expect/panic in library non-test code\n\
     \x20 rob-safety           every `unsafe` needs a // SAFETY: comment\n\
     interprocedural rules (AST + workspace call graph):\n\
     \x20 panic-free-hot-path  no panic site reachable from a `check: hot` entry\n\
     \x20 atomic-ordering      Ordering::* site policy (Relaxed/SeqCst/pairing)\n\
     \x20 alloc-in-hot-loop    no allocation in loops of hot-path functions\n\
     \x20 stale-waiver         waivers must suppress something (--stale-waivers)\n\
     \n\
     waive a violation with `// check: allow(<rule>) <reason>` on the line\n\
     or the comment line above it; the reason is mandatory. Declare a hot\n\
     entry point with a `// check: hot <why>` comment above the fn."
}

/// Minimal JSON string escaping (the same dependency-free discipline as
/// the baseline module).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render the scan as one JSON document: findings, per-rule counts, and
/// baseline deltas.
fn render_json(diags: &[Diagnostic], deltas: &[Delta]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, d) in diags.iter().enumerate() {
        let sep = if i + 1 == diags.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}{}\n",
            json_str(d.rule.name()),
            json_str(&d.path),
            d.line,
            json_str(&d.what),
            sep
        ));
    }
    out.push_str("  ],\n  \"deltas\": [\n");
    for (i, delta) in deltas.iter().enumerate() {
        let sep = if i + 1 == deltas.len() { "" } else { "," };
        let (kind, rule, path, base, cur) = match delta {
            Delta::Regression {
                rule,
                path,
                baseline,
                current,
            } => ("regression", rule, path, baseline, current),
            Delta::Improvement {
                rule,
                path,
                baseline,
                current,
            } => ("improvement", rule, path, baseline, current),
        };
        out.push_str(&format!(
            "    {{\"kind\": {}, \"rule\": {}, \"path\": {}, \"baseline\": {}, \"current\": {}}}{}\n",
            json_str(kind),
            json_str(rule),
            json_str(path),
            base,
            cur,
            sep
        ));
    }
    out.push_str(&format!("  ],\n  \"total\": {}\n}}\n", diags.len()));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("slim-check: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if let Some(name) = &args.explain {
        return match RuleId::parse(name) {
            Some(rule) => {
                println!("{}", rule.explain());
                ExitCode::SUCCESS
            }
            None => {
                let known: Vec<&str> = rules::ALL_RULES.iter().map(|r| r.name()).collect();
                eprintln!(
                    "slim-check: unknown rule `{name}`; known rules: {}",
                    known.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }

    let opts = ScanOptions {
        stale_waivers: args.stale_waivers,
    };
    let diags = match scan_workspace_with(&args.root, opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("slim-check: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let current = baseline::tally(&diags);

    if args.list && !args.json {
        for d in &diags {
            println!("{}", d.render());
        }
        println!(
            "{} violation(s) across {} rule(s)",
            diags.len(),
            current.len()
        );
    }

    if args.update {
        let text = baseline::render(&current);
        if let Err(e) = std::fs::write(&args.baseline, text) {
            eprintln!("slim-check: cannot write {}: {e}", args.baseline.display());
            return ExitCode::from(2);
        }
        println!(
            "slim-check: baseline updated ({} violation(s)) -> {}",
            diags.len(),
            args.baseline.display()
        );
        return ExitCode::SUCCESS;
    }

    let base = match std::fs::read_to_string(&args.baseline) {
        Ok(text) => match baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "slim-check: malformed baseline {}: {e}",
                    args.baseline.display()
                );
                return ExitCode::from(2);
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Default::default(),
        Err(e) => {
            eprintln!("slim-check: cannot read {}: {e}", args.baseline.display());
            return ExitCode::from(2);
        }
    };

    let deltas = baseline::compare(&base, &current);
    if args.json {
        print!("{}", render_json(&diags, &deltas));
    }
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    for delta in &deltas {
        match delta {
            Delta::Regression {
                rule,
                path,
                baseline,
                current,
            } => {
                regressions += 1;
                eprintln!(
                    "REGRESSION {rule}: {path}: {current} violation(s), baseline allows {baseline}"
                );
                // Show the offending lines for the regressed (rule, file)
                // so CI output is actionable without a local rerun.
                for d in diags
                    .iter()
                    .filter(|d| d.rule.name() == rule && &d.path == path)
                {
                    eprintln!("  {}", d.render());
                }
            }
            Delta::Improvement {
                rule,
                path,
                baseline,
                current,
            } => {
                improvements += 1;
                if !args.json {
                    println!(
                        "improved {rule}: {path}: {current} violation(s), baseline allowed {baseline} \
                         (run with --update-baseline to lock in)"
                    );
                }
            }
        }
    }

    let total: usize = current.values().map(|f| f.values().sum::<usize>()).sum();
    if !args.json {
        println!(
            "slim-check: {} file-rule regression(s), {} improvement(s); {} total violation(s) on record ({} rules active)",
            regressions,
            improvements,
            total,
            rules::ALL_RULES.len()
        );
    }
    if regressions > 0 {
        eprintln!(
            "slim-check: fix the regressions, waive with `// check: allow(<rule>) <reason>`, \
             or (for deliberate debt) rerun with --update-baseline"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
