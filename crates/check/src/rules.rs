//! The repo-specific rules: what clippy cannot express about this
//! codebase's determinism and robustness contracts.

use crate::lexer::PreparedLine;

/// A lint rule identifier. Stable: these ids appear in waiver comments
/// and in the committed ratchet baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in a report/journal/aggregation path.
    DetHashIter,
    /// Raw f64 accumulation outside the blessed Neumaier reducer.
    DetFloatAccum,
    /// `==`/`!=` against a float literal in non-test code.
    DetFloatCmp,
    /// `Instant::now`/`SystemTime` wall-clock reads outside the
    /// observability crates.
    DetWallclock,
    /// `unwrap`/`expect`/`panic!` family in library non-test code.
    RobUnwrap,
    /// `unsafe` without an adjacent `// SAFETY:` comment.
    RobSafety,
    /// A panic site (panic-family macro, `unwrap`/`expect`, `[]`
    /// indexing) reachable from a declared `// check: hot` entry point.
    /// Interprocedural: needs the call graph.
    PanicFreeHotPath,
    /// An `Ordering::*` use outside the site policy (`Relaxed` only in
    /// obs counters, `SeqCst` only with a waiver, `Release`
    /// stores paired with `Acquire` loads). Interprocedural.
    AtomicOrdering,
    /// An allocating call (`Vec::new`, `push`, `clone`, `format!`,
    /// `collect`, …) inside a loop of a hot-path function.
    /// Interprocedural.
    AllocInHotLoop,
    /// A `// check: allow(...)` waiver that suppressed no finding
    /// (only reported under `--stale-waivers`).
    StaleWaiver,
}

/// All rules, in reporting order.
pub const ALL_RULES: [RuleId; 10] = [
    RuleId::DetHashIter,
    RuleId::DetFloatAccum,
    RuleId::DetFloatCmp,
    RuleId::DetWallclock,
    RuleId::RobUnwrap,
    RuleId::RobSafety,
    RuleId::PanicFreeHotPath,
    RuleId::AtomicOrdering,
    RuleId::AllocInHotLoop,
    RuleId::StaleWaiver,
];

impl RuleId {
    /// The stable name used in waivers and the baseline file.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::DetHashIter => "det-hash-iter",
            RuleId::DetFloatAccum => "det-float-accum",
            RuleId::DetFloatCmp => "det-float-cmp",
            RuleId::DetWallclock => "det-wallclock",
            RuleId::RobUnwrap => "rob-unwrap",
            RuleId::RobSafety => "rob-safety",
            RuleId::PanicFreeHotPath => "panic-free-hot-path",
            RuleId::AtomicOrdering => "atomic-ordering",
            RuleId::AllocInHotLoop => "alloc-in-hot-loop",
            RuleId::StaleWaiver => "stale-waiver",
        }
    }

    /// Line rules run per-line over the blanked source in
    /// [`check_file`]; the others are interprocedural and run from the
    /// AST/call-graph driver (`interproc`).
    pub fn is_line_rule(self) -> bool {
        !matches!(
            self,
            RuleId::PanicFreeHotPath
                | RuleId::AtomicOrdering
                | RuleId::AllocInHotLoop
                | RuleId::StaleWaiver
        )
    }

    /// Parse a rule name (as written in a waiver comment).
    pub fn parse(name: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line rationale shown with each diagnostic.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::DetHashIter => {
                "HashMap/HashSet in a report/journal/aggregation path: iteration \
                 order is nondeterministic; use BTreeMap/BTreeSet or sort before output"
            }
            RuleId::DetFloatAccum => {
                "raw f64 accumulation in a likelihood/linalg crate outside the blessed \
                 kernels; route reductions through NeumaierSum (slim_linalg::vecops) \
                 so totals are bit-deterministic and carry an error bound"
            }
            RuleId::DetFloatCmp => {
                "exact float comparison against a literal; compare .to_bits(), use a \
                 tolerance, or waive with the reason the exact compare is intended"
            }
            RuleId::DetWallclock => {
                "wall-clock read (Instant::now / SystemTime) outside the obs/bench \
                 crates; timestamps must never feed deterministic outputs — route timing \
                 through a slim-obs span, or waive with where the value goes"
            }
            RuleId::RobUnwrap => {
                "unwrap/expect/panic in library non-test code; return a typed error, \
                 or waive with the invariant that makes the panic unreachable"
            }
            RuleId::RobSafety => "unsafe without a preceding // SAFETY: comment",
            RuleId::PanicFreeHotPath => {
                "panic site reachable from a declared hot entry point; hot kernels \
                 must be total — return a typed error above the kernel, prove the \
                 invariant and waive, or restructure so the panic is unreachable"
            }
            RuleId::AtomicOrdering => {
                "atomic ordering outside the site policy: Relaxed is for obs \
                 counters only, SeqCst needs a waiver naming why weaker orders fail, \
                 and Release stores must pair with Acquire loads in the same file"
            }
            RuleId::AllocInHotLoop => {
                "allocation inside a loop of a hot-path function; hoist into a \
                 reusable scratch buffer (the lane-padded workspace discipline) or \
                 waive with why the allocation is cold"
            }
            RuleId::StaleWaiver => {
                "waiver suppressed no finding; delete it (or fix the site it was \
                 supposed to cover) so the ratchet stays honest"
            }
        }
    }

    /// Multi-paragraph rationale and waiver syntax, for `--explain`.
    pub fn explain(self) -> String {
        // Waiver examples are assembled with `format!` so this source
        // file never contains a literal waiver for a real rule (which
        // the stale-waiver rule itself would flag).
        let waiver = format!("// check: {}({}) <reason>", "allow", self.name());
        let body = match self {
            RuleId::DetHashIter => {
                "HashMap/HashSet iteration order is randomized per process, so any \
                 report, journal, or aggregation that iterates one is \
                 nondeterministic across runs. Use BTreeMap/BTreeSet, or collect \
                 and sort before output.\n\nScope: batch, obs, and cli src trees \
                 (the output paths)."
            }
            RuleId::DetFloatAccum => {
                "Float addition is not associative: raw `+=` loops and iterator \
                 `.sum()` reductions give different totals under different \
                 vectorization or summation orders. Likelihood totals must be \
                 bit-deterministic, so reductions in the lik/linalg crates go \
                 through the blessed NeumaierSum kernels (slim_linalg::vecops), \
                 which fix the order and carry a compensation term.\n\nScope: \
                 crates/lik/src and crates/linalg/src, minus the blessed kernel \
                 modules themselves."
            }
            RuleId::DetFloatCmp => {
                "`x == 1.0` is exact bit comparison; after any arithmetic the \
                 equality is a coin flip. Compare `.to_bits()` when bit equality \
                 is really meant, or use a tolerance. Waive when the exact compare \
                 is intentional (e.g. sentinel values never produced by \
                 arithmetic).\n\nScope: all first-party code."
            }
            RuleId::DetWallclock => {
                "Wall-clock reads (Instant::now, SystemTime) in compute code leak \
                 nondeterminism into outputs and make runs unreproducible. Timing \
                 belongs to the observability layer: route it through a slim-obs \
                 span, which reads the clock outside the deterministic core and \
                 only while a sink is on.\n\nScope: everything except obs, \
                 bench, and vendor."
            }
            RuleId::RobUnwrap => {
                "unwrap/expect/panic in library code turns a recoverable condition \
                 into a process abort — in the daemon/batch north star, a dropped \
                 request. Return a typed error, or waive stating the invariant \
                 that makes the panic unreachable.\n\nScope: library code \
                 (binaries, benches, and the sanitize module are exempt)."
            }
            RuleId::RobSafety => {
                "Every `unsafe` block needs a `// SAFETY:` comment within the \
                 preceding few lines stating the invariant that makes it sound. \
                 No waiver form: write the SAFETY comment instead.\n\nScope: all \
                 code."
            }
            RuleId::PanicFreeHotPath => {
                "Functions marked with a `// check: hot` comment above their \
                 declaration (the lik pruning units, expm reconstruction, linalg \
                 SIMD kernels) are the per-site inner loops: a panic there kills a \
                 worker mid-shard. This rule walks the conservative call graph \
                 from every hot entry and reports panic-family macros \
                 (panic!/unreachable!/todo!/unimplemented!/assert!*), \
                 unwrap/expect, and `[]` indexing reachable in non-test, \
                 non-sanitize code. debug_assert! is exempt (compiled out in \
                 release).\n\nWaivers: on the panic site's line, waive that site; \
                 on a call site's line, cut that call edge (the callee is not \
                 explored through it); in the comment block above a fn \
                 declaration, absolve that fn's own body sites. Method calls \
                 resolve to every workspace method of that name and closure \
                 bodies belong to their enclosing fn, so reachability \
                 over-approximates — a waiver states why the site cannot fire, \
                 not why the path cannot be taken."
            }
            RuleId::AtomicOrdering => {
                "Site policy for every `Ordering::*` mention: Relaxed is legal \
                 only under crates/obs (statistical counters and sink switches \
                 where staleness is fine); SeqCst is a smell everywhere (it hides \
                 the real protocol — name the reason in a waiver if truly \
                 needed); Acquire/Release/AcqRel are the blessed hand-off orders, \
                 but a file with Release stores and no Acquire loads (or vice \
                 versa) earns a pairing finding, because a one-sided protocol \
                 synchronizes nothing.\n\nScope: all first-party code, \
                 cfg(test) excluded."
            }
            RuleId::AllocInHotLoop => {
                "Allocation inside a loop of a hot-path function (reachable from \
                 a `// check: hot` entry) defeats the scratch-buffer discipline: \
                 the lane-padded workspaces exist so steady-state pruning does \
                 zero allocator round-trips. Flags Vec::new/with_capacity, \
                 Box::new, vec!/format!, and .push/.clone/.collect/.to_vec/\
                 .to_string/.to_owned inside loop bodies.\n\nWaive on the \
                 allocation's line when it is provably cold (first-call warmup, \
                 error paths)."
            }
            RuleId::StaleWaiver => {
                "A waiver that suppresses nothing is debt pretending to be \
                 documentation: the site it covered was fixed or moved, and the \
                 waiver now silently licenses a future regression. Under \
                 `--stale-waivers` (CI runs it), every valid waiver must suppress \
                 at least one finding or cut at least one hot-path edge; the rest \
                 are reported here. Fix: delete the waiver. There is no waiver \
                 for this rule."
            }
        };
        format!(
            "{} — {}\n\n{}\n\nWaiver syntax (same line, or comment line above):\n  {}\n",
            self.name(),
            self.summary(),
            body,
            waiver
        )
    }

    /// Does this rule apply to the file at `path` (workspace-relative,
    /// forward slashes)?
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            // Output paths whose ordering reaches reports, journals,
            // metric snapshots, or the terminal.
            RuleId::DetHashIter => {
                path.starts_with("crates/batch/src/")
                    || path.starts_with("crates/obs/src/")
                    || path.starts_with("crates/cli/src/")
            }
            // The crates whose sums feed lnL. The blessed kernel modules
            // (vecops holds the Neumaier reducer; gemm/gemv/syrk/naive
            // ARE the accumulation kernels it is built from, and simd/
            // holds the dispatched microkernels those loops lower to) are
            // exempt.
            RuleId::DetFloatAccum => {
                const BLESSED: [&str; 5] = [
                    "crates/linalg/src/vecops.rs",
                    "crates/linalg/src/gemm.rs",
                    "crates/linalg/src/gemv.rs",
                    "crates/linalg/src/syrk.rs",
                    "crates/linalg/src/naive.rs",
                ];
                (path.starts_with("crates/lik/src/") || path.starts_with("crates/linalg/src/"))
                    && !BLESSED.contains(&path)
                    && !path.starts_with("crates/linalg/src/simd/")
            }
            RuleId::DetFloatCmp => true,
            // The observability crates' whole job is wall-clock time; the
            // bench harness measures it by definition; vendored stand-in
            // dependencies are not first-party code.
            RuleId::DetWallclock => {
                !(path.starts_with("crates/obs/")
                    || path.starts_with("crates/bench/")
                    || path.starts_with("vendor/"))
            }
            // Library code only: binaries (main.rs, src/bin), examples,
            // and the bench harness may panic at the top level. The
            // sanitizer module is exempt wholesale — its entire job is to
            // panic on violated invariants.
            RuleId::RobUnwrap => {
                !(path.ends_with("/main.rs")
                    || path.contains("/src/bin/")
                    || path.starts_with("examples/")
                    || path.starts_with("crates/bench/")
                    || path == "crates/linalg/src/sanitize.rs")
            }
            RuleId::RobSafety => true,
            // The interprocedural rules scope themselves through the
            // call graph / module map; vendored stand-ins are never
            // first-party hot-path code.
            RuleId::PanicFreeHotPath | RuleId::AtomicOrdering | RuleId::AllocInHotLoop => {
                !path.starts_with("vendor/")
            }
            RuleId::StaleWaiver => true,
        }
    }
}

/// One rule violation at one source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What was matched (for the human-readable report).
    pub what: String,
}

impl Diagnostic {
    /// `path:line: rule: what — summary` for terminal output.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {} — {}",
            self.path,
            self.line,
            self.rule.name(),
            self.what,
            self.rule.summary()
        )
    }
}

/// A parsed `// check: allow(<rule>) <reason>` waiver.
#[derive(Debug, Clone, PartialEq)]
pub struct Waiver {
    /// The rule being waived, or `Err(name)` for an unknown rule name.
    pub rule: Result<RuleId, String>,
    /// The justification text after the closing parenthesis.
    pub reason: String,
    /// 1-based line the waiver comment sits on.
    pub line: usize,
}

/// Extract every waiver on a raw line.
pub fn parse_waivers(raw: &str, line: usize) -> Vec<Waiver> {
    const TAG: &str = "check: allow(";
    let mut out = Vec::new();
    let mut rest = raw;
    let mut _offset = 0usize;
    while let Some(at) = rest.find(TAG) {
        let after = &rest[at + TAG.len()..];
        if let Some(close) = after.find(')') {
            let name = after[..close].trim();
            // Documentation that *mentions* the syntax (`allow(<rule>)`)
            // is not a waiver; only kebab-case names count, so a typo'd
            // real rule is still caught below.
            let kebab = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-';
            if name.is_empty() || !name.chars().all(kebab) {
                rest = &after[close + 1..];
                continue;
            }
            let reason = after[close + 1..].trim();
            // A reason can be terminated by another waiver on the line.
            let reason = match reason.find(TAG) {
                Some(next) => reason[..next].trim_end_matches(['/', ' ']).trim(),
                None => reason,
            };
            out.push(Waiver {
                rule: RuleId::parse(name).ok_or_else(|| name.to_string()),
                reason: reason.to_string(),
                line,
            });
            rest = &after[close + 1..];
            _offset += at + TAG.len() + close + 1;
        } else {
            break;
        }
    }
    out
}

/// Malformed-waiver diagnostics for a file: unknown rule names and
/// missing reasons are themselves violations (of the rule being waived,
/// reported so a typo cannot silently disable a lint).
pub fn waiver_problems(path: &str, lines: &[PreparedLine]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for w in parse_waivers(&line.raw, i + 1) {
            match &w.rule {
                Err(name) => out.push(Diagnostic {
                    rule: RuleId::RobUnwrap,
                    path: path.to_string(),
                    line: i + 1,
                    what: format!("waiver names unknown rule `{name}`"),
                }),
                Ok(rule) if w.reason.is_empty() => out.push(Diagnostic {
                    rule: *rule,
                    path: path.to_string(),
                    line: i + 1,
                    what: format!("waiver for {} has no reason", rule.name()),
                }),
                Ok(_) => {}
            }
        }
    }
    out
}

/// Run every applicable line rule over a prepared file.
pub fn check_file(path: &str, lines: &[PreparedLine]) -> Vec<Diagnostic> {
    check_file_tracked(path, lines, &mut FileWaivers::parse(lines))
}

/// [`check_file`] with waiver-usage tracking: every waiver that
/// suppresses a finding is marked used in `waivers`, which feeds the
/// stale-waiver rule after the interprocedural pass has also had its
/// chance to consume waivers.
pub fn check_file_tracked(
    path: &str,
    lines: &[PreparedLine],
    waivers: &mut FileWaivers,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in ALL_RULES {
        if !rule.is_line_rule() || !rule.applies_to(path) {
            continue;
        }
        for (i, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some(what) = match_rule(rule, &line.code, lines, i) else {
                continue;
            };
            if waivers.waive(i + 1, rule) {
                continue;
            }
            out.push(Diagnostic {
                rule,
                path: path.to_string(),
                line: i + 1,
                what,
            });
        }
    }
    out.extend(waiver_problems(path, lines));
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// All valid waivers in one file, with per-waiver usage tracking. The
/// matching semantics replicate the original `is_waived` exactly: a
/// waiver covers findings on its own raw line, and on the line below
/// when the waiver's line is a comment-only line.
#[derive(Debug, Clone)]
pub struct FileWaivers {
    entries: Vec<WaiverEntry>,
}

#[derive(Debug, Clone)]
struct WaiverEntry {
    rule: RuleId,
    /// 1-based line the waiver sits on.
    line: usize,
    /// Does this waiver also cover `line + 1` (comment-only line)?
    covers_below: bool,
    /// Waivers in test code never count as stale.
    in_test: bool,
    used: bool,
}

impl FileWaivers {
    /// Parse every *valid* waiver (known rule, non-empty reason) in the
    /// file. Malformed waivers are handled by [`waiver_problems`].
    pub fn parse(lines: &[PreparedLine]) -> FileWaivers {
        let mut entries = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            for w in parse_waivers(&line.raw, i + 1) {
                if let Ok(rule) = w.rule {
                    if !w.reason.is_empty() {
                        entries.push(WaiverEntry {
                            rule,
                            line: i + 1,
                            covers_below: line.raw.trim_start().starts_with("//"),
                            in_test: line.in_test,
                            used: false,
                        });
                    }
                }
            }
        }
        FileWaivers { entries }
    }

    /// Is a finding of `rule` at `site_line` (1-based) waived? Marks
    /// every matching waiver used.
    pub fn waive(&mut self, site_line: usize, rule: RuleId) -> bool {
        let mut hit = false;
        for e in &mut self.entries {
            if e.rule == rule
                && (e.line == site_line || (e.covers_below && e.line + 1 == site_line))
            {
                e.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Is there an unconsumed-or-consumed waiver for `rule` anywhere in
    /// the comment/attribute block ending at `decl_line - 1`? Used for
    /// fn-level waivers on hot-path functions. Marks matches used.
    pub fn waive_block_above(
        &mut self,
        lines: &[PreparedLine],
        decl_line: usize,
        rule: RuleId,
    ) -> bool {
        let mut hit = false;
        let mut l = decl_line.saturating_sub(1);
        while l >= 1 {
            let raw = lines[l - 1].raw.trim_start();
            if !(raw.starts_with("//") || raw.starts_with('#')) {
                break;
            }
            for e in &mut self.entries {
                if e.rule == rule && e.line == l {
                    e.used = true;
                    hit = true;
                }
            }
            l -= 1;
        }
        hit
    }

    /// Does a *used or unused* waiver for `rule` exist covering
    /// `site_line`? (Non-marking lookup.)
    pub fn covers(&self, site_line: usize, rule: RuleId) -> bool {
        self.entries.iter().any(|e| {
            e.rule == rule && (e.line == site_line || (e.covers_below && e.line + 1 == site_line))
        })
    }

    /// Stale-waiver findings: valid, non-test waivers that never
    /// suppressed anything.
    pub fn stale(&self, path: &str) -> Vec<Diagnostic> {
        self.entries
            .iter()
            .filter(|e| !e.used && !e.in_test)
            .map(|e| Diagnostic {
                rule: RuleId::StaleWaiver,
                path: path.to_string(),
                line: e.line,
                what: format!("waiver for {} suppressed no finding", e.rule.name()),
            })
            .collect()
    }
}

/// Does `rule` fire on blanked line `code`? Returns what matched.
fn match_rule(rule: RuleId, code: &str, lines: &[PreparedLine], i: usize) -> Option<String> {
    match rule {
        RuleId::DetHashIter => {
            for token in ["HashMap", "HashSet"] {
                if contains_word(code, token) {
                    return Some(format!("{token} in an output path"));
                }
            }
            None
        }
        RuleId::DetFloatAccum => {
            for token in [".sum()", ".sum::<", ".product()", ".product::<"] {
                if code.contains(token) {
                    return Some(format!("iterator `{token}` reduction"));
                }
            }
            if let Some(p) = code.find("+=") {
                // `x += 1;`-style integer counters are not float
                // accumulation; skip pure integer-literal increments.
                let rhs = code[p + 2..].trim();
                // The statement may be followed by `;` and closing braces
                // on the same line; judge only the expression itself.
                let rhs = match rhs.find(';') {
                    Some(semi) => rhs[..semi].trim(),
                    None => rhs,
                };
                let integer_literal =
                    !rhs.is_empty() && rhs.chars().all(|c| c.is_ascii_digit() || c == '_');
                if !integer_literal {
                    return Some("`+=` accumulation".to_string());
                }
            }
            None
        }
        RuleId::DetFloatCmp => float_cmp_match(code),
        RuleId::DetWallclock => {
            // `Instant::now` is a path, not a bare word (`now` alone is
            // too common); `SystemTime` is a type name.
            if code.contains("Instant::now") {
                return Some("`Instant::now` wall-clock read".to_string());
            }
            if contains_word(code, "SystemTime") {
                return Some("`SystemTime` wall-clock read".to_string());
            }
            None
        }
        RuleId::RobUnwrap => {
            for token in [
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ] {
                if code.contains(token) {
                    return Some(format!("`{}`", token.trim_end_matches(['(', ')'])));
                }
            }
            None
        }
        RuleId::RobSafety => {
            if !contains_word(code, "unsafe") {
                return None;
            }
            let mut j = i;
            for _ in 0..4 {
                if lines[j].raw.contains("SAFETY:") {
                    return None;
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            Some("`unsafe` without a // SAFETY: comment".to_string())
        }
        // The interprocedural rules never run through the per-line
        // matcher; `check_file_tracked` filters on `is_line_rule`.
        RuleId::PanicFreeHotPath
        | RuleId::AtomicOrdering
        | RuleId::AllocInHotLoop
        | RuleId::StaleWaiver => None,
    }
}

/// Word-boundary substring search.
fn contains_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find(word) {
        let start = from + at;
        let end = start + word.len();
        let pre_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Find `==`/`!=` with a float literal on either side.
fn float_cmp_match(code: &str) -> Option<String> {
    for op in ["==", "!="] {
        let mut from = 0usize;
        while let Some(at) = code[from..].find(op) {
            let p = from + at;
            // Skip `!==`-like runs and fat arrows cannot occur (`=>` has
            // no second `=`); `<=`/`>=` contain a single `=` and never
            // match a two-character search for `==`.
            let left = last_token(&code[..p]);
            let right = first_token(&code[p + 2..]);
            if is_float_literal(left) || is_float_literal(right) {
                return Some(format!("`{left} {op} {right}` exact float comparison"));
            }
            from = p + 2;
        }
    }
    None
}

/// Trailing operand token of an expression prefix.
fn last_token(prefix: &str) -> &str {
    let trimmed = prefix.trim_end();
    let boundary = trimmed
        .rfind(|c: char| {
            c.is_whitespace() || matches!(c, '(' | ',' | '&' | '|' | '{' | ';' | '=' | '<' | '>')
        })
        .map(|b| b + 1)
        .unwrap_or(0);
    &trimmed[boundary..]
}

/// Leading operand token of an expression suffix.
fn first_token(suffix: &str) -> &str {
    let trimmed = suffix.trim_start();
    let boundary = trimmed
        .find(|c: char| c.is_whitespace() || matches!(c, ')' | ',' | '&' | '|' | '}' | ';' | '{'))
        .unwrap_or(trimmed.len());
    &trimmed[..boundary]
}

/// Is `token` a float literal (`1.0`, `0.`, `1e-9`, `2f64`, `1.5e3`)?
fn is_float_literal(token: &str) -> bool {
    let t = token
        .trim_start_matches('-')
        .trim_end_matches("f64")
        .trim_end_matches("f32");
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let has_dot = t.contains('.');
    let has_exp = t.contains(['e', 'E'])
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+' | '_'));
    let all_numeric = t
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+' | '_'));
    // An integer literal like `61` is not a float; a suffixed `2f64` is.
    (has_dot || has_exp || token.ends_with("f64") || token.ends_with("f32")) && all_numeric
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::prepare;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        check_file(path, &prepare(src))
    }

    #[test]
    fn unwrap_flagged_in_lib_not_in_tests() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let d = diags("crates/lik/src/a.rs", src);
        let unwraps: Vec<_> = d.iter().filter(|d| d.rule == RuleId::RobUnwrap).collect();
        assert_eq!(unwraps.len(), 1);
        assert_eq!(unwraps[0].line, 1);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let d = diags("crates/bio/src/a.rs", "fn f() { x.unwrap_or(false); }\n");
        assert!(d.iter().all(|d| d.rule != RuleId::RobUnwrap));
    }

    #[test]
    fn waiver_suppresses_with_reason_only() {
        let src = "fn f() { x.unwrap(); } // check: allow(rob-unwrap) index proven in bounds\n";
        assert!(diags("crates/lik/src/a.rs", src).is_empty());
        let bare = "fn f() { x.unwrap(); } // check: allow(rob-unwrap)\n";
        let d = diags("crates/lik/src/a.rs", bare);
        assert!(
            d.iter().any(|d| d.what.contains("no reason")),
            "reasonless waiver must be rejected: {d:?}"
        );
        assert!(d.iter().any(|d| d.what.contains("`.unwrap`")));
    }

    #[test]
    fn waiver_on_line_above() {
        let src = "// check: allow(rob-unwrap) guarded by the postorder invariant\nfn f() { x.unwrap(); }\n";
        assert!(diags("crates/lik/src/a.rs", src).is_empty());
    }

    #[test]
    fn unknown_waiver_rule_is_flagged() {
        let src = "fn f() {} // check: allow(rob-unwrp) typo\n";
        let d = diags("crates/lik/src/a.rs", src);
        assert!(d.iter().any(|d| d.what.contains("unknown rule")));
    }

    #[test]
    fn hash_iter_scoped_to_output_paths() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(diags("crates/batch/src/aggregate.rs", src).len(), 1);
        assert!(diags("crates/bio/src/patterns.rs", src).is_empty());
    }

    #[test]
    fn float_accum_scoped_and_blessed() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum() }\n";
        assert_eq!(diags("crates/lik/src/x.rs", src).len(), 1);
        assert!(diags("crates/linalg/src/vecops.rs", src).is_empty());
        assert!(diags("crates/bio/src/x.rs", src).is_empty());
        let plus = "fn g() { acc += x * y; }\n";
        assert_eq!(diags("crates/linalg/src/ql.rs", plus).len(), 1);
        let counter = "fn h() { n += 1; }\n";
        assert!(diags("crates/linalg/src/ql.rs", counter).is_empty());
        // The dispatched microkernels are accumulation kernels too.
        assert!(diags("crates/linalg/src/simd/avx2.rs", src).is_empty());
        assert!(diags("crates/linalg/src/simd/mod.rs", src).is_empty());
    }

    #[test]
    fn float_cmp_needs_float_literal() {
        assert_eq!(
            diags(
                "crates/model/src/a.rs",
                "if factor != 1.0 { q.scale(factor); }\n"
            )
            .len(),
            1
        );
        assert!(diags("crates/model/src/a.rs", "if n != 1 { work(); }\n").is_empty());
        assert!(diags(
            "crates/model/src/a.rs",
            "if a.to_bits() == b.to_bits() {}\n"
        )
        .is_empty());
        assert_eq!(diags("crates/model/src/a.rs", "if x == 0.0 {}\n").len(), 1);
        assert!(diags("crates/model/src/a.rs", "if x <= 0.0 {}\n").is_empty());
    }

    #[test]
    fn wallclock_scoped_to_non_observability_crates() {
        let src = "fn f() { let t = Instant::now(); work(t); }\n";
        assert_eq!(diags("crates/lik/src/par.rs", src).len(), 1);
        assert_eq!(diags("crates/opt/src/bfgs.rs", src).len(), 1);
        // The observability crates' whole job is wall-clock time.
        assert!(diags("crates/obs/src/timing.rs", src).is_empty());
        assert!(diags("crates/bench/src/bin/tool.rs", src).is_empty());
        let sys = "fn g() { let t = SystemTime::now(); stamp(t); }\n";
        assert_eq!(diags("crates/batch/src/journal.rs", sys).len(), 1);
        // Waivers work like any other rule.
        let waived = "// check: allow(det-wallclock) feeds the report footer only\n\
                      fn f() { let t = Instant::now(); work(t); }\n";
        assert!(diags("crates/lik/src/par.rs", waived).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { go() } }\n";
        assert_eq!(diags("crates/linalg/src/simd.rs", bad).len(), 1);
        let good = "// SAFETY: lane count checked above\nfn f() { unsafe { go() } }\n";
        assert!(diags("crates/linalg/src/simd.rs", good).is_empty());
    }

    #[test]
    fn binaries_exempt_from_unwrap() {
        let src = "fn main() { run().unwrap(); }\n";
        assert!(diags("crates/cli/src/main.rs", src).is_empty());
        assert!(diags("crates/bench/src/bin/tool.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() { log(\"call .unwrap() only in tests\"); } // .unwrap() is banned\n";
        assert!(diags("crates/lik/src/a.rs", src).is_empty());
    }
}
