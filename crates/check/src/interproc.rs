//! The interprocedural rules: panic-free-hot-path, atomic-ordering,
//! alloc-in-hot-loop (stale-waiver is assembled by the caller from the
//! shared waiver-usage state).
//!
//! Hot entry points are declared in source with a `check: hot` comment
//! on or above the `fn` declaration. Reachability runs over the
//! conservative call graph ([`crate::callgraph`]); waivers interact per
//! the documented semantics: a `panic-free-hot-path` waiver on a call
//! line cuts that edge, on a site line suppresses that site, and in the
//! comment block above a fn declaration absolves the fn's own body
//! sites.

use std::collections::BTreeMap;

use crate::ast::Expr;
use crate::callgraph;
use crate::lexer::PreparedLine;
use crate::resolve::{self, ParsedFile, Workspace};
use crate::rules::{Diagnostic, FileWaivers, RuleId};

/// One file ready for analysis: prepared lines (for waivers and hot
/// markers) plus its AST.
pub struct AnalyzedFile {
    pub path: String,
    pub lines: Vec<PreparedLine>,
    pub ast: crate::ast::File,
}

/// Run the three graph/AST rules over the workspace. `waivers` carries
/// per-file usage state shared with the line rules; the caller derives
/// stale-waiver findings from it afterwards.
pub fn run(
    files: &[AnalyzedFile],
    crate_names: &BTreeMap<String, String>,
    waivers: &mut BTreeMap<String, FileWaivers>,
) -> Vec<Diagnostic> {
    let parsed: Vec<ParsedFile> = files
        .iter()
        .map(|f| ParsedFile {
            path: f.path.clone(),
            ast: f.ast.clone(),
        })
        .collect();
    let ws = resolve::build(&parsed, crate_names);
    let lines_of: BTreeMap<&str, &[PreparedLine]> = files
        .iter()
        .map(|f| (f.path.as_str(), f.lines.as_slice()))
        .collect();
    for f in files {
        waivers
            .entry(f.path.clone())
            .or_insert_with(|| FileWaivers::parse(&f.lines));
    }

    let graph = callgraph::build(&ws);
    let roots: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.in_scope()
                && f.has_body
                && lines_of
                    .get(f.file.as_str())
                    .is_some_and(|lines| hot_marked(lines, f.line))
        })
        .map(|(i, _)| i)
        .collect();

    // Reachability with waiver-cut edges. A panic-free-hot-path waiver
    // on a call site's line severs that edge (and counts as used).
    let reach = callgraph::reachable(&ws, &graph, &roots, |from, line| {
        let file = ws.fns[from].file.clone();
        waivers
            .get_mut(&file)
            .is_some_and(|w| w.waive(line, RuleId::PanicFreeHotPath))
    });

    let mut out = Vec::new();
    out.extend(panic_free_rule(&ws, &reach, &lines_of, waivers));
    out.extend(alloc_rule(&ws, &reach, waivers));
    out.extend(atomic_rule(&ws, waivers));
    out
}

// ------------------------------------------------------------ hot marker

/// Is the fn declared at `decl_line` (1-based) marked `check: hot` —
/// on the declaration line or in the comment/attribute block above?
pub fn hot_marked(lines: &[PreparedLine], decl_line: usize) -> bool {
    if decl_line == 0 || decl_line > lines.len() {
        return false;
    }
    if has_hot(&lines[decl_line - 1].raw) {
        return true;
    }
    let mut l = decl_line - 1;
    while l >= 1 {
        let raw = lines[l - 1].raw.trim_start();
        if !(raw.starts_with("//") || raw.starts_with('#')) {
            break;
        }
        if has_hot(raw) {
            return true;
        }
        l -= 1;
    }
    false
}

fn has_hot(raw: &str) -> bool {
    const TAG: &str = "check: hot";
    // The marker must START a comment (`// check: hot …`) so prose that
    // merely mentions the syntax mid-sentence never declares a hot fn.
    let mut rest = raw;
    while let Some(at) = rest.find("//") {
        let after = rest[at..].trim_start_matches(['/', '!']).trim_start();
        if let Some(tail) = after.strip_prefix(TAG) {
            if tail
                .chars()
                .next()
                .is_none_or(|c| !c.is_ascii_alphanumeric())
            {
                return true;
            }
        }
        rest = &rest[at + 2..];
    }
    false
}

// ------------------------------------------------- panic-free-hot-path

const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

fn panic_free_rule(
    ws: &Workspace,
    reach: &[Option<usize>],
    lines_of: &BTreeMap<&str, &[PreparedLine]>,
    waivers: &mut BTreeMap<String, FileWaivers>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        let Some(root) = reach[i] else { continue };
        if !RuleId::PanicFreeHotPath.applies_to(&f.file) {
            continue;
        }
        let Some(fw) = waivers.get_mut(&f.file) else {
            continue;
        };
        // A fn-level waiver in the comment block above the declaration
        // absolves this fn's own body sites (traversal already
        // continued through it).
        if let Some(lines) = lines_of.get(f.file.as_str()) {
            if fw.waive_block_above(lines, f.line, RuleId::PanicFreeHotPath) {
                continue;
            }
        }
        let mut sites = Vec::new();
        panic_sites(&f.body, &mut sites);
        let entry = &ws.fns[root].qual;
        for (line, what) in sites {
            if fw.waive(line, RuleId::PanicFreeHotPath) {
                continue;
            }
            out.push(Diagnostic {
                rule: RuleId::PanicFreeHotPath,
                path: f.file.clone(),
                line,
                what: format!("{what} reachable from hot entry {entry}"),
            });
        }
    }
    out
}

fn panic_sites(exprs: &[Expr], out: &mut Vec<(usize, String)>) {
    for e in exprs {
        match e {
            Expr::Gated { cfg, body } => {
                if cfg.in_scope() {
                    panic_sites(body, out);
                }
            }
            Expr::MacroCall { name, line, args } => {
                if PANIC_MACROS.contains(&name.as_str()) {
                    out.push((*line, format!("`{name}!`")));
                } else if !name.starts_with("debug_assert") {
                    // debug_assert* is compiled out of release builds —
                    // its argument expressions never run on the hot path.
                    panic_sites(args, out);
                }
            }
            Expr::MethodCall { name, line, args } => {
                if name == "unwrap" || name == "expect" {
                    out.push((*line, format!("`.{name}()`")));
                }
                panic_sites(args, out);
            }
            Expr::Index { line, children } => {
                out.push((*line, "`[]` indexing".to_string()));
                panic_sites(children, out);
            }
            _ => panic_sites(e.children(), out),
        }
    }
}

// ---------------------------------------------------- alloc-in-hot-loop

const ALLOC_METHODS: [&str; 6] = [
    "push",
    "clone",
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];
const ALLOC_CALLS: [(&str, &str); 6] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "with_capacity"),
];

fn alloc_rule(
    ws: &Workspace,
    reach: &[Option<usize>],
    waivers: &mut BTreeMap<String, FileWaivers>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if reach[i].is_none() || !RuleId::AllocInHotLoop.applies_to(&f.file) {
            continue;
        }
        let Some(fw) = waivers.get_mut(&f.file) else {
            continue;
        };
        let mut sites = Vec::new();
        alloc_sites(&f.body, false, &mut sites);
        for (line, what) in sites {
            if fw.waive(line, RuleId::AllocInHotLoop) {
                continue;
            }
            out.push(Diagnostic {
                rule: RuleId::AllocInHotLoop,
                path: f.file.clone(),
                line,
                what: format!("{what} in a loop of hot-path fn {}", f.qual),
            });
        }
    }
    out
}

fn alloc_sites(exprs: &[Expr], in_loop: bool, out: &mut Vec<(usize, String)>) {
    for e in exprs {
        match e {
            Expr::Gated { cfg, body } => {
                if cfg.in_scope() {
                    alloc_sites(body, in_loop, out);
                }
            }
            Expr::Loop { body, .. } => alloc_sites(body, true, out),
            Expr::MacroCall { name, line, args } => {
                if in_loop && ALLOC_MACROS.contains(&name.as_str()) {
                    out.push((*line, format!("`{name}!` allocation")));
                }
                alloc_sites(args, in_loop, out);
            }
            Expr::MethodCall { name, line, args } => {
                if in_loop && ALLOC_METHODS.contains(&name.as_str()) {
                    out.push((*line, format!("`.{name}()` allocation")));
                }
                alloc_sites(args, in_loop, out);
            }
            Expr::Call { path, line, args } => {
                if in_loop && path.len() >= 2 {
                    let key = (path[path.len() - 2].as_str(), path[path.len() - 1].as_str());
                    if ALLOC_CALLS.contains(&key) {
                        out.push((*line, format!("`{}::{}` allocation", key.0, key.1)));
                    }
                }
                alloc_sites(args, in_loop, out);
            }
            _ => alloc_sites(e.children(), in_loop, out),
        }
    }
}

// ------------------------------------------------------ atomic-ordering

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

#[derive(Debug)]
struct AtomicSite {
    line: usize,
    ord: &'static str,
    /// Enclosing call/method name (`store`, `load`, `fetch_add`, …).
    ctx: Option<String>,
}

fn atomic_rule(ws: &Workspace, waivers: &mut BTreeMap<String, FileWaivers>) -> Vec<Diagnostic> {
    // Group sites per file: the pairing check is per-file.
    let mut by_file: BTreeMap<&str, Vec<AtomicSite>> = BTreeMap::new();
    for f in &ws.fns {
        if !f.in_scope() || !RuleId::AtomicOrdering.applies_to(&f.file) {
            continue;
        }
        let sites = by_file.entry(f.file.as_str()).or_default();
        atomic_sites(&f.body, None, sites);
    }
    let mut out = Vec::new();
    for (file, sites) in by_file {
        if sites.is_empty() {
            continue;
        }
        let Some(fw) = waivers.get_mut(file) else {
            continue;
        };
        let relaxed_ok = file.starts_with("crates/obs/");
        let mut release_side: Option<usize> = None;
        let mut acquire_side = false;
        let mut release_seen = false;
        let mut acquire_line: Option<usize> = None;
        for s in &sites {
            let ctx = s.ctx.as_deref().unwrap_or("");
            let rmw =
                ctx.starts_with("fetch_") || ctx.starts_with("compare_exchange") || ctx == "swap";
            let is_store = ctx == "store" || rmw;
            let is_load = ctx == "load" || rmw;
            match s.ord {
                "Release" | "AcqRel" if is_store => {
                    release_seen = true;
                    release_side.get_or_insert(s.line);
                }
                _ => {}
            }
            if matches!(s.ord, "Acquire" | "AcqRel") && is_load {
                acquire_side = true;
                acquire_line.get_or_insert(s.line);
            }
            let finding = match s.ord {
                "Relaxed" if !relaxed_ok => {
                    Some("`Ordering::Relaxed` outside the obs counter crate".to_string())
                }
                "SeqCst" => Some("`Ordering::SeqCst` (name the protocol or weaken)".to_string()),
                _ => None,
            };
            if let Some(what) = finding {
                if fw.waive(s.line, RuleId::AtomicOrdering) {
                    continue;
                }
                out.push(Diagnostic {
                    rule: RuleId::AtomicOrdering,
                    path: file.to_string(),
                    line: s.line,
                    what,
                });
            }
        }
        // One-sided hand-off: Release stores with no Acquire load in the
        // same file (or the reverse) synchronize nothing.
        if release_seen && !acquire_side {
            let line = release_side.unwrap_or(1);
            if !fw.waive(line, RuleId::AtomicOrdering) {
                out.push(Diagnostic {
                    rule: RuleId::AtomicOrdering,
                    path: file.to_string(),
                    line,
                    what: "Release store with no Acquire load in this file".to_string(),
                });
            }
        }
        if acquire_side && !release_seen {
            let line = acquire_line.unwrap_or(1);
            if !fw.waive(line, RuleId::AtomicOrdering) {
                out.push(Diagnostic {
                    rule: RuleId::AtomicOrdering,
                    path: file.to_string(),
                    line,
                    what: "Acquire load with no Release store in this file".to_string(),
                });
            }
        }
    }
    out
}

fn atomic_sites(exprs: &[Expr], ctx: Option<&str>, out: &mut Vec<AtomicSite>) {
    for e in exprs {
        match e {
            Expr::Gated { cfg, body } => {
                if cfg.in_scope() {
                    atomic_sites(body, ctx, out);
                }
            }
            Expr::PathRef { path, line } => {
                if path.len() >= 2 && path[path.len() - 2] == "Ordering" {
                    if let Some(ord) = ORDERINGS
                        .iter()
                        .find(|o| **o == path[path.len() - 1].as_str())
                    {
                        out.push(AtomicSite {
                            line: *line,
                            ord,
                            ctx: ctx.map(str::to_string),
                        });
                    }
                }
            }
            Expr::MethodCall { name, args, .. } => atomic_sites(args, Some(name), out),
            Expr::Call { path, args, .. } => {
                atomic_sites(args, path.last().map(String::as_str), out)
            }
            _ => atomic_sites(e.children(), ctx, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::prepare;
    use crate::parser::parse_file;

    fn analyze(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let afs: Vec<AnalyzedFile> = files
            .iter()
            .map(|(p, s)| AnalyzedFile {
                path: p.to_string(),
                lines: prepare(s),
                ast: parse_file(s).expect("parse"),
            })
            .collect();
        let mut waivers = BTreeMap::new();
        let mut out = run(&afs, &BTreeMap::new(), &mut waivers);
        out.sort_by_key(|d| (d.path.clone(), d.line, d.rule));
        out
    }

    #[test]
    fn panic_reachable_from_hot_entry() {
        let d = analyze(&[(
            "crates/a/src/lib.rs",
            "// check: hot\npub fn kernel() { helper(); }\nfn helper(x: Option<u32>) { x.unwrap(); }\nfn cold() { panic!(\"no\"); }",
        )]);
        let panics: Vec<_> = d
            .iter()
            .filter(|d| d.rule == RuleId::PanicFreeHotPath)
            .collect();
        assert_eq!(panics.len(), 1, "{panics:?}");
        assert_eq!(panics[0].line, 3);
        assert!(panics[0].what.contains("slim_a::kernel"));
    }

    #[test]
    fn edge_waiver_cuts_propagation() {
        let d = analyze(&[(
            "crates/a/src/lib.rs",
            "// check: hot\npub fn kernel() {\n    // check: allow(panic-free-hot-path) error path, never taken per postorder invariant\n    helper();\n}\nfn helper(x: Option<u32>) { x.unwrap(); }",
        )]);
        assert!(
            d.iter().all(|d| d.rule != RuleId::PanicFreeHotPath),
            "{d:?}"
        );
    }

    #[test]
    fn fn_level_waiver_absolves_body() {
        let d = analyze(&[(
            "crates/a/src/lib.rs",
            "// check: hot\npub fn kernel(xs: &[f64]) -> f64 { pick(xs) }\n// check: allow(panic-free-hot-path) index bounded by caller contract\nfn pick(xs: &[f64]) -> f64 { xs[0] }",
        )]);
        assert!(
            d.iter().all(|d| d.rule != RuleId::PanicFreeHotPath),
            "{d:?}"
        );
    }

    #[test]
    fn alloc_in_hot_loop_flagged() {
        let d = analyze(&[(
            "crates/a/src/lib.rs",
            "// check: hot\npub fn kernel(n: usize) { let mut v = Vec::new(); for i in 0..n { v.push(i); } }",
        )]);
        let allocs: Vec<_> = d
            .iter()
            .filter(|d| d.rule == RuleId::AllocInHotLoop)
            .collect();
        // Vec::new is outside the loop (fine); push is inside (finding).
        assert_eq!(allocs.len(), 1, "{allocs:?}");
        assert!(allocs[0].what.contains("push"));
    }

    #[test]
    fn relaxed_ok_in_trace_not_elsewhere() {
        let src =
            "pub fn bump(c: &std::sync::atomic::AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let d = analyze(&[("crates/obs/src/trace/mod.rs", src)]);
        assert!(d.iter().all(|d| d.rule != RuleId::AtomicOrdering), "{d:?}");
        let d = analyze(&[("crates/batch/src/lib.rs", src)]);
        assert!(
            d.iter()
                .any(|d| d.rule == RuleId::AtomicOrdering && d.what.contains("Relaxed")),
            "{d:?}"
        );
    }

    #[test]
    fn seqcst_needs_waiver_and_pairing_checked() {
        let d = analyze(&[(
            "crates/a/src/lib.rs",
            "pub fn f(x: &std::sync::atomic::AtomicBool) { x.store(true, Ordering::SeqCst); }",
        )]);
        assert!(d
            .iter()
            .any(|d| d.rule == RuleId::AtomicOrdering && d.what.contains("SeqCst")));
        // Release store with a matching Acquire load: no pairing finding.
        let paired = analyze(&[(
            "crates/a/src/lib.rs",
            "pub fn set(x: &AtomicBool) { x.store(true, Ordering::Release); }\n\
             pub fn get(x: &AtomicBool) -> bool { x.load(Ordering::Acquire) }",
        )]);
        assert!(
            paired.iter().all(|d| d.rule != RuleId::AtomicOrdering),
            "{paired:?}"
        );
        // One-sided Release: pairing finding.
        let lone = analyze(&[(
            "crates/a/src/lib.rs",
            "pub fn set(x: &AtomicBool) { x.store(true, Ordering::Release); }",
        )]);
        assert!(
            lone.iter().any(|d| d.what.contains("no Acquire load")),
            "{lone:?}"
        );
    }

    #[test]
    fn hot_marker_detection() {
        let lines = prepare("// check: hot pruning inner loop\n#[inline]\npub fn f() {}\n");
        assert!(hot_marked(&lines, 3));
        let lines = prepare("// check: hotel\npub fn f() {}\n");
        assert!(!hot_marked(&lines, 2));
        let lines = prepare("pub fn f() {} // check: hot\n");
        assert!(hot_marked(&lines, 1));
    }
}
